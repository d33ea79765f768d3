package dyncoll

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"dyncoll/internal/oracle"
	"dyncoll/internal/wal"
)

// The oracle matrix. Every cell runs one of the oracle's seeded streams
// through one configuration in one form and holds the structure to the
// scanning model — never to a second instance of the same code — at
// three points: after the stream, after the reopen the form stands for,
// and after the stream's last quarter is applied to the reopened
// structure. The forms are heap (the structure itself), v1 (Save, Load
// into a default-config receiver), v2 (SaveMappedFile, mapped open) and
// durable (a reopen that replays the whole WAL, then a checkpoint, a
// WAL tail, Close and a reopen through both). Each form also asserts its
// own contract: Save∘Load∘Save and the mapped re-save are
// byte-identical, Stats().Shards survives, a durable reopen replays
// exactly the records after its checkpoint and keeps the stored config
// over contradictory options, and the reopened structure still returns
// the typed errors for a duplicate add and an absent delete.

// oracleC0 is every matrix cell's WithMinCapacity: small, so that the
// streams span several ladder levels and the over-C0 shapes bite.
const oracleC0 = 16

// oracleOps is a TestOracle cell's stream length; -short samples a
// quarter of it, the length every other entry point to the matrix runs.
func oracleOps() int {
	if testing.Short() {
		return shortOps
	}
	return 4 * shortOps
}

const shortOps = 40

// TestOracle is the whole matrix: three structures × {Amortized,
// WorstCase} × shards {0, 4} × (collections) five indexes × four forms,
// plus the option rows.
func TestOracle(t *testing.T) {
	for _, kind := range []structKind{kindCollection, kindRelation, kindGraph} {
		for _, form := range []string{"heap", "v1", "v2", "durable"} {
			t.Run(fmt.Sprintf("%v/%s", kind, form), func(t *testing.T) { oracleForm(t, kind, form, 1, oracleOps()) })
		}
	}
	t.Run("options", func(t *testing.T) { oracleOptionRows(t, 1, oracleOps()) })
}

// The slices of the matrix a round-trip test used to own keep its name
// and run a short stream of a second seed.
func TestCollectionSnapshotRoundTrip(t *testing.T) { oracleForm(t, kindCollection, "v1", 2, shortOps) }
func TestMappedCollectionMatrix(t *testing.T)      { oracleForm(t, kindCollection, "v2", 2, shortOps) }
func TestDurableCollectionReopen(t *testing.T)     { oracleForm(t, kindCollection, "durable", 2, shortOps) }
func TestRelationSnapshotRoundTrip(t *testing.T)   { oracleForm(t, kindRelation, "v1", 2, shortOps) }
func TestGraphSnapshotRoundTrip(t *testing.T)      { oracleForm(t, kindGraph, "v1", 2, shortOps) }
func TestMappedRelationMatrix(t *testing.T)        { oracleForm(t, kindRelation, "v2", 2, shortOps) }
func TestMappedGraphMatrix(t *testing.T)           { oracleForm(t, kindGraph, "v2", 2, shortOps) }
func TestDurableRelationReopen(t *testing.T)       { oracleForm(t, kindRelation, "durable", 2, shortOps) }
func TestDurableGraphReopen(t *testing.T)          { oracleForm(t, kindGraph, "durable", 2, shortOps) }
func TestCollectionConfigurations(t *testing.T)    { oracleOptionRows(t, 2, shortOps) }

// TestShardedCollectionEquivalence runs the heap form at the shard
// counts the matrix does not.
func TestShardedCollectionEquivalence(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) { docCell(t, "heap", p, 2, shortOps, WithSyncRebuilds(), WithShards(p)) })
	}
}

// oracleForm runs one form of kind over every transformation, shard
// count and, for collections, index.
func oracleForm(t *testing.T, kind structKind, form string, seed int64, n int) {
	registerSnapTestIndex()
	for _, tr := range []Transformation{Amortized, WorstCase} {
		for _, shards := range []int{0, 4} {
			opts := []Option{WithTransformation(tr), WithSyncRebuilds(), WithMinCapacity(oracleC0)}
			if shards > 0 {
				opts = append(opts, WithShards(shards))
			}
			t.Run(fmt.Sprintf("tr%d/shards%d", tr, shards), func(t *testing.T) {
				if kind != kindCollection {
					pairCell(t, kind, form, shards, seed, n, opts...)
					return
				}
				for _, index := range []string{IndexFMM, IndexFMP, IndexFMZ, IndexFM4, IndexFM, IndexSA, IndexCSA, "snap-suffix-table"} {
					t.Run(index, func(t *testing.T) { docCell(t, form, shards, seed, n, append(opts, WithIndex(index))...) })
				}
			})
		}
	}
}

// oracleOptionRows runs the heap form under option combinations the
// matrix leaves at their defaults, asynchronous rebuilds among them:
// answers must be exact while builds are in flight.
func oracleOptionRows(t *testing.T, seed int64, n int) {
	rows := []struct {
		shards int
		opts   []Option
	}{
		{0, nil},
		{0, []Option{WithTransformation(Amortized)}},
		{0, []Option{WithTransformation(AmortizedFastInsert)}},
		{0, []Option{WithTransformation(WorstCase), WithSyncRebuilds()}},
		{0, []Option{WithIndex(IndexSA)}},
		{0, []Option{WithIndex(IndexCSA)}},
		{0, []Option{WithIndex(IndexCSA), WithTransformation(Amortized), WithSampleRate(4)}},
		{0, []Option{WithCounting(), WithSyncRebuilds()}},
		{0, []Option{WithSampleRate(4), WithTau(8)}},
		{0, []Option{WithEpsilon(0.25), WithMinCapacity(32)}},
		{1, []Option{WithShards(1)}},
		{4, []Option{WithShards(4), WithSyncRebuilds()}},
		{3, []Option{WithShards(3), WithTransformation(Amortized)}},
		{2, []Option{WithShards(2), WithIndex(IndexSA), WithCounting()}},
	}
	for i, row := range rows {
		t.Run(fmt.Sprintf("cfg%d", i), func(t *testing.T) { docCell(t, "heap", row.shards, seed, n, row.opts...) })
	}
}

// docWriter is what the stream writes through: a Collection or a
// DurableCollection.
type docWriter interface {
	Insert(Document) error
	InsertBatch([]Document) error
	Delete(uint64) error
}

// runDocs applies ops to w and m: single documents through Insert and
// Delete, batches through InsertBatch and DeleteBatch.
func runDocs(t *testing.T, w docWriter, m *oracle.Model, ops []oracle.DocOp) {
	t.Helper()
	for _, op := range ops {
		m.Apply(op)
		var err error
		switch {
		case len(op.Insert) == 1:
			err = w.Insert(op.Insert[0])
		case len(op.Insert) > 1:
			err = w.InsertBatch(op.Insert)
		case len(op.Delete) == 1:
			err = w.Delete(op.Delete[0])
		default:
			n := 0
			if d, ok := w.(*DurableCollection); ok {
				n, err = d.DeleteBatch(op.Delete)
			} else {
				n = w.(*Collection).DeleteBatch(op.Delete)
			}
			if err == nil && n != len(op.Delete) {
				err = fmt.Errorf("DeleteBatch removed %d of %d live documents", n, len(op.Delete))
			}
		}
		must(t, err)
	}
}

func checkDocs(t *testing.T, when string, m *oracle.Model, c *Collection) {
	t.Helper()
	if err := oracle.CheckDocs[Occurrence](m, c); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// durableReopen closes d and reopens it through open. Before the first
// checkpoint recovery replays the whole WAL and takes the cell's options
// again; after it, recovery loads the checkpoint and replays the tail,
// and the stored config must beat the contradictory options it is
// given. Either way it must replay exactly tail records.
func durableReopen[T interface {
	Close() error
	RecoveryStats() RecoveryStats
}](t *testing.T, open func(...Option) (T, error), d T, tail int, ckpt bool, opts ...Option) T {
	t.Helper()
	must(t, d.Close())
	if ckpt {
		opts = []Option{WithShards(7), WithTransformation(AmortizedFastInsert)}
	}
	re, err := open(opts...)
	must(t, err)
	t.Cleanup(func() { re.Close() })
	if rec := re.RecoveryStats(); rec.CheckpointLoaded != ckpt || rec.WALRecords != tail || rec.TornTailTruncated {
		t.Fatalf("recovery = %+v, want checkpoint %v and %d records", rec, ckpt, tail)
	}
	return re
}

// roundTrip puts s through a snapshot form — v1 saves it and loads the
// bytes into fresh(), whose default config Load must replace; v2 saves a
// mapped file and opens it — and returns what came back with the form's
// byte contract, Save∘Load∘Save or the mapped re-save byte-identical,
// for the caller to assert once the answers are checked. The heap form
// returns s itself.
func roundTrip[S pairStruct](t *testing.T, form string, s S, fresh func() S, open func(string) (S, func() error, error)) (S, func()) {
	switch form {
	case "v1":
		var first bytes.Buffer
		must(t, s.Save(&first))
		back := fresh()
		must(t, back.Load(bytes.NewReader(first.Bytes())))
		return back, func() {
			var again bytes.Buffer
			must(t, back.Save(&again))
			if !bytes.Equal(first.Bytes(), again.Bytes()) {
				t.Fatal("Save∘Load∘Save is not a fixed point")
			}
		}
	case "v2":
		path := saveMapped(t, s.SaveMappedFile)
		back, closeBack, err := open(path)
		must(t, err)
		t.Cleanup(func() { closeBack() })
		return back, func() { sameFile(t, "re-saved mapped open", saveMapped(t, back.SaveMappedFile), path) }
	}
	return s, func() {}
}

// docCell runs the document stream through one collection configuration
// in one form.
func docCell(t *testing.T, form string, shards int, seed int64, n int, opts ...Option) {
	ops := oracle.DocStream(seed, n, oracleC0)
	pre, post := ops[:len(ops)*3/4], ops[len(ops)*3/4:]
	var m oracle.Model
	var back *Collection
	var w docWriter
	contract := func() {}
	if form == "durable" {
		fs := wal.NewMemFS()
		open := func(o ...Option) (*DurableCollection, error) {
			return OpenDurableCollection("dur", WALOptions{FS: fs, CheckpointEvery: -1}, o...)
		}
		d, err := open(opts...)
		must(t, err)
		if rec := d.RecoveryStats(); rec.CheckpointLoaded || rec.WALRecords != 0 {
			t.Fatalf("fresh open recovery = %+v", rec)
		}
		k := len(pre) * 2 / 3
		runDocs(t, d, &m, pre[:k])
		d = durableReopen(t, open, d, k, false, opts...)
		checkDocs(t, "WAL replay", &m, d.Collection)
		must(t, d.Checkpoint())
		runDocs(t, d, &m, pre[k:])
		checkDocs(t, "stream", &m, d.Collection)
		re := durableReopen(t, open, d, len(pre)-k, true)
		back, w = re.Collection, re
	} else {
		c := mustCollection(t, opts...)
		runDocs(t, c, &m, pre)
		checkDocs(t, "stream", &m, c)
		if c.SizeBits() <= 0 {
			t.Fatal("SizeBits not positive")
		}
		back, contract = roundTrip(t, form, c, func() *Collection { return mustCollection(t) },
			func(path string) (*Collection, func() error, error) {
				mc, err := OpenMappedCollection(path, MappedVerify())
				if err != nil {
					return nil, nil, err
				}
				return mc, mc.Close, nil
			})
		w = back
	}
	checkDocs(t, "reopen", &m, back)
	contract()
	if got := back.Stats().Shards; got != shards {
		t.Fatalf("shards = %d after %s, want %d", got, form, shards)
	}
	if live := m.Docs(); len(live) > 0 {
		if err := w.Insert(live[0]); !errors.Is(err, ErrDuplicateID) {
			t.Fatalf("duplicate insert = %v, want ErrDuplicateID", err)
		}
	}
	if err := w.Delete(1 << 40); !errors.Is(err, ErrNotFound) {
		t.Fatalf("absent delete = %v, want ErrNotFound", err)
	}
	runDocs(t, w, &m, post)
	checkDocs(t, "mutated", &m, back)
}

// pairReader asks s the model's questions: a graph answers under its
// edge names.
func pairReader(s pairStruct) oracle.PairReader {
	switch s := s.(type) {
	case *DurableRelation:
		return s.Relation
	case *Graph:
		return graphReader{s}
	case *DurableGraph:
		return graphReader{s.Graph}
	}
	return s.(*Relation)
}

type graphReader struct{ *Graph }

func (g graphReader) Related(u, v uint64) bool  { return g.HasEdge(u, v) }
func (g graphReader) Labels(u uint64) []uint64  { return g.Neighbors(u) }
func (g graphReader) Objects(v uint64) []uint64 { return g.ReverseNeighbors(v) }
func (g graphReader) Len() int                  { return g.EdgeCount() }
func (g graphReader) CountLabels(u uint64) int  { return g.OutDegree(u) }
func (g graphReader) CountObjects(v uint64) int { return g.InDegree(v) }

func checkPairs(t *testing.T, when string, m *oracle.PairModel, s pairStruct) {
	t.Helper()
	if err := oracle.CheckPairs(m, pairReader(s)); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// pairModelOps returns the model's mutators in the shape pairOps does.
func pairModelOps(m *oracle.PairModel) (add, del func(a, b uint64) error) {
	return func(a, b uint64) error { m.Add(a, b); return nil },
		func(a, b uint64) error { m.Delete(a, b); return nil }
}

func runPairs(t *testing.T, s pairStruct, m *oracle.PairModel, ops []oracle.PairOp) {
	t.Helper()
	add, del, _ := pairOps(s)
	for _, op := range ops {
		m.Apply(op)
		if op.Del {
			must(t, del(op.A, op.B))
		} else {
			must(t, add(op.A, op.B))
		}
	}
}

// pairCell runs the pair stream through one relation or graph
// configuration in one form.
func pairCell(t *testing.T, kind structKind, form string, shards int, seed int64, n int, opts ...Option) {
	ops := oracle.PairStream(seed, 2*n)
	pre, post := ops[:len(ops)*3/4], ops[len(ops)*3/4:]
	var m oracle.PairModel
	var back pairStruct
	contract := func() {}
	if form == "durable" {
		fs := wal.NewMemFS()
		open := func(o ...Option) (durablePairStruct, error) { return openDurablePairs(kind, fs, o...) }
		d, err := open(opts...)
		must(t, err)
		k := len(pre) * 2 / 3
		runPairs(t, d, &m, pre[:k])
		d = durableReopen(t, open, d, k, false, opts...)
		checkPairs(t, "WAL replay", &m, d)
		must(t, d.Checkpoint())
		runPairs(t, d, &m, pre[k:])
		checkPairs(t, "stream", &m, d)
		back = durableReopen(t, open, d, len(pre)-k, true)
	} else {
		s := newPairs(t, kind, opts...)
		runPairs(t, s, &m, pre)
		checkPairs(t, "stream", &m, s)
		back, contract = roundTrip(t, form, s, func() pairStruct { return newPairs(t, kind) },
			func(path string) (pairStruct, func() error, error) { return openMappedPairs(kind, path) })
	}
	checkPairs(t, "reopen", &m, back)
	contract()
	if got := back.Stats().Shards; got != shards {
		t.Fatalf("shards = %d after %s, want %d", got, form, shards)
	}
	add, del, dup := pairOps(back)
	if live := m.Pairs(); len(live) > 0 {
		if err := add(live[0][0], live[0][1]); !errors.Is(err, dup) {
			t.Fatalf("duplicate add = %v, want %v", err, dup)
		}
	}
	if err := del(1<<40, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("absent delete = %v, want ErrNotFound", err)
	}
	runPairs(t, back, &m, post)
	checkPairs(t, "mutated", &m, back)
}
