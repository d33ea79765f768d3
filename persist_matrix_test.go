package dyncoll

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"dyncoll/internal/wal"
)

// pairStruct is a Relation or a Graph as the oracle matrix drives them:
// the two share every persistence method by name (so does a
// Collection), and pairOps and pairReader bridge the vocabulary (pairs
// vs edges) where they do not.
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
