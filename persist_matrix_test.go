package dyncoll

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"dyncoll/internal/wal"
)

// pairStruct is a Relation or a Graph as the persistence matrix drives
// them: the two share every persistence method by name, and pairOps /
// pairsEqual bridge the vocabulary (pairs vs edges) where they do not.
type pairStruct interface {
	Save(io.Writer) error
	Load(io.Reader) error
	SaveMappedFile(string) error
	LoadMappedFile(string, ...MappedOption) error
	Stats() IndexStats
	WaitIdle()
}

type durablePairStruct interface {
	pairStruct
	Checkpoint() error
	RecoveryStats() RecoveryStats
	Close() error
}

func newPairs(t *testing.T, kind structKind, opts ...Option) pairStruct {
	t.Helper()
	if kind == kindGraph {
		g, err := NewGraph(opts...)
		must(t, err)
		return g
	}
	r, err := NewRelation(opts...)
	must(t, err)
	return r
}

func openMappedPairs(kind structKind, path string) (pairStruct, func() error, error) {
	if kind == kindGraph {
		g, err := OpenMappedGraph(path, MappedVerify())
		if err != nil {
			return nil, nil, err
		}
		return g, g.Close, nil
	}
	r, err := OpenMappedRelation(path, MappedVerify())
	if err != nil {
		return nil, nil, err
	}
	return r, r.Close, nil
}

func openDurablePairs(kind structKind, fs wal.FS, opts ...Option) (durablePairStruct, error) {
	wopts := WALOptions{FS: fs, CheckpointEvery: -1}
	if kind == kindGraph {
		return OpenDurableGraph("dur", wopts, opts...)
	}
	return OpenDurableRelation("dur", wopts, opts...)
}

// pairOps returns the structure's mutators and the typed error its add
// reports for a pair that is already there.
func pairOps(s pairStruct) (add, del func(a, b uint64) error, dup error) {
	switch s := s.(type) {
	case *Relation:
		return s.Add, s.Delete, ErrDuplicatePair
	case *DurableRelation:
		return s.Add, s.Delete, ErrDuplicatePair
	case *Graph:
		return s.AddEdge, s.DeleteEdge, ErrDuplicateEdge
	case *DurableGraph:
		return s.AddEdge, s.DeleteEdge, ErrDuplicateEdge
	}
	panic("not a pair structure")
}

func pairsEqual(t *testing.T, label string, a, b pairStruct) {
	t.Helper()
	plain := func(s pairStruct) pairStruct {
		switch s := s.(type) {
		case *DurableRelation:
			return s.Relation
		case *DurableGraph:
			return s.Graph
		}
		return s
	}
	switch a := plain(a).(type) {
	case *Relation:
		relationsEqual(t, label, a, plain(b).(*Relation))
	case *Graph:
		graphsEqual(t, label, a, plain(b).(*Graph))
	}
}

// persistenceMatrix is the one round-trip matrix for the pair
// structures: kind × form (v1 stream, v2 mapped file, durable reopen
// through a checkpoint and a WAL tail) × transformation × sharding. In
// every cell the structure that comes back answers exactly like the one
// that went out, stays fully mutable, and — for the two snapshot forms
// — writes the very bytes it was read from: Save∘Load∘Save is a fixed
// point (TestCompatFixtures and FuzzSnapshotRoundTrip hold collections
// to the same).
func persistenceMatrix(t *testing.T, kind structKind, form string) {
	for _, tr := range []Transformation{Amortized, WorstCase} {
		for _, shards := range []int{0, 4} {
			t.Run(fmt.Sprintf("tr%d/shards%d", tr, shards), func(t *testing.T) {
				opts := durTestOpts(tr, shards)
				orig := newPairs(t, kind, opts...)
				add, del, dup := pairOps(orig)
				snapRelationCorpus(t, add, del)
				orig.WaitIdle()
				var back pairStruct

				switch form {
				case "v1":
					var first, again bytes.Buffer
					must(t, orig.Save(&first))
					back = newPairs(t, kind) // default config: Load must replace it
					must(t, back.Load(bytes.NewReader(first.Bytes())))
					must(t, back.Save(&again))
					if !bytes.Equal(first.Bytes(), again.Bytes()) {
						t.Fatal("Save∘Load∘Save is not a fixed point")
					}
				case "v2":
					path := saveMapped(t, orig.SaveMappedFile)
					m, closeMapped, err := openMappedPairs(kind, path)
					must(t, err)
					defer closeMapped()
					sameFile(t, "re-saved mapped open", saveMapped(t, m.SaveMappedFile), path)
					back = m
				case "durable":
					fs := wal.NewMemFS()
					d, err := openDurablePairs(kind, fs, opts...)
					must(t, err)
					dadd, ddel, _ := pairOps(d)
					snapRelationCorpus(t, dadd, ddel)
					must(t, d.Checkpoint())
					for _, op := range []func(a, b uint64) error{dadd, add} {
						must(t, op(1000, 1))
					}
					for _, op := range []func(a, b uint64) error{ddel, del} {
						must(t, op(1, 1))
					}
					must(t, d.Close())
					// The stored configuration wins over the (absent) options.
					re, err := openDurablePairs(kind, fs)
					must(t, err)
					defer re.Close()
					checkTail(t, re.RecoveryStats())
					back = re
				}

				pairsEqual(t, form, orig, back)
				if got := back.Stats().Shards; got != shards {
					t.Fatalf("shards = %d after %s, want %d", got, form, shards)
				}
				// Still fully mutable, with the error contract intact, and
				// identical mutations keep the two sides identical: C0 and
				// rebuilds run in heap whatever the stores came from.
				badd, bdel, _ := pairOps(back)
				for _, ops := range [][2]func(a, b uint64) error{{add, del}, {badd, bdel}} {
					must(t, ops[0](999, 7))
					must(t, ops[1](1, 101))
					if err := ops[0](999, 7); !errors.Is(err, dup) {
						t.Fatalf("duplicate add = %v, want %v", err, dup)
					}
					if err := ops[1](1, 101); !errors.Is(err, ErrNotFound) {
						t.Fatalf("absent delete = %v, want ErrNotFound", err)
					}
				}
				pairsEqual(t, form+"/mutated", orig, back)
			})
		}
	}
}

func TestRelationSnapshotRoundTrip(t *testing.T) { persistenceMatrix(t, kindRelation, "v1") }
func TestGraphSnapshotRoundTrip(t *testing.T)    { persistenceMatrix(t, kindGraph, "v1") }
func TestMappedRelationMatrix(t *testing.T)      { persistenceMatrix(t, kindRelation, "v2") }
func TestMappedGraphMatrix(t *testing.T)         { persistenceMatrix(t, kindGraph, "v2") }
func TestDurableRelationReopen(t *testing.T)     { persistenceMatrix(t, kindRelation, "durable") }
func TestDurableGraphReopen(t *testing.T)        { persistenceMatrix(t, kindGraph, "durable") }

// TestPersistenceKindCrossing: a graph is a relation under edge names
// in memory, but never on disk — each kind's snapshot, mapped file,
// checkpoint and WAL records are refused by the other with
// ErrBadSnapshot, leaving the receiver as it was.
func TestPersistenceKindCrossing(t *testing.T) {
	for _, kinds := range [][2]structKind{{kindGraph, kindRelation}, {kindRelation, kindGraph}} {
		from, into := kinds[0], kinds[1]
		t.Run(fmt.Sprintf("%v-into-%v", from, into), func(t *testing.T) {
			src := newPairs(t, from, durTestOpts(Amortized, 2)...)
			add, del, _ := pairOps(src)
			snapRelationCorpus(t, add, del)
			var v1 bytes.Buffer
			must(t, src.Save(&v1))
			v2 := saveMapped(t, src.SaveMappedFile)

			dst := newPairs(t, into)
			dadd, _, _ := pairOps(dst)
			must(t, dadd(7, 8))
			unchanged := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, ErrBadSnapshot) {
					t.Fatalf("%s: got %v, want ErrBadSnapshot", what, err)
				}
				if st := dst.Stats(); st.Shards != 0 || st.LevelSizes[0] != 1 {
					t.Fatalf("%s changed the receiver: %+v", what, st)
				}
			}
			unchanged("Load", dst.Load(bytes.NewReader(v1.Bytes())))
			unchanged("LoadMappedFile", dst.LoadMappedFile(v2))
			_, _, err := openMappedPairs(into, v2)
			unchanged("OpenMapped", err)
			rel, ops := &Relation{}, []byte{opGraphAdd, opGraphDelete}
			switch dst := dst.(type) {
			case *Relation:
				rel = dst
			case *Graph:
				rel, ops = &dst.r, []byte{opRelAdd, opRelDelete}
			}
			for _, op := range ops {
				unchanged(fmt.Sprintf("replaying WAL op %d", op), rel.applyRecord(encodePairOp(op, 7, 9)))
			}

			// Durable directories: one recovered through its checkpoint,
			// one (no checkpoint) through the other kind's WAL records.
			for _, checkpoint := range []bool{true, false} {
				fs := wal.NewMemFS()
				d, err := openDurablePairs(from, fs)
				must(t, err)
				fadd, _, _ := pairOps(d)
				must(t, fadd(1, 2))
				if checkpoint {
					must(t, d.Checkpoint())
				}
				must(t, d.Close())
				_, err = openDurablePairs(into, fs)
				unchanged(fmt.Sprintf("OpenDurable (checkpoint=%v)", checkpoint), err)
			}
		})
	}
}
