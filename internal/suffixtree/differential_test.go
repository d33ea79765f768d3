package suffixtree

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dyncoll/internal/doc"
)

// scanModel is the reference the tree is held to: the live documents in
// insertion order, every question answered by scanning them.
type scanModel struct {
	docs []doc.Doc
}

func (m *scanModel) find(pattern []byte) []Occurrence {
	var out []Occurrence
	for _, d := range m.docs {
		for off := 0; off < len(d.Data) && off+len(pattern) <= len(d.Data); off++ {
			if bytes.Equal(d.Data[off:off+len(pattern)], pattern) {
				out = append(out, Occurrence{DocID: d.ID, Off: off})
			}
		}
	}
	sortOccs(out)
	return out
}

// opRunner interprets a byte string as inserts, deletes and checks
// against a tree and the model side by side. The seeded differential
// test and the fuzz target both feed it, so a fuzz finding replays as a
// plain byte slice.
type opRunner struct {
	t      *testing.T
	tr     *Tree
	m      scanModel
	in     []byte
	nextID uint64
	sigma  int // payload alphabet, small so that documents share substrings
}

func (r *opRunner) byte() int {
	if len(r.in) == 0 {
		return 0
	}
	b := r.in[0]
	r.in = r.in[1:]
	return int(b)
}

func (r *opRunner) sym() byte { return byte(1 + r.byte()%r.sigma) }

func (r *opRunner) run() {
	for len(r.in) > 0 {
		switch op := r.byte(); op % 16 {
		case 0: // empty document
			r.insert(nil)
		case 1: // single symbol
			r.insert([]byte{r.sym()})
		case 2: // unary run
			r.insert(bytes.Repeat([]byte{r.sym()}, 1+r.byte()%97))
		case 3: // a live document's payload again, under a new ID
			if len(r.m.docs) > 0 {
				r.insert(bytes.Clone(r.m.docs[r.byte()%len(r.m.docs)].Data))
			}
		case 4: // a live document's suffix or prefix plus one symbol: shared paths ending at terminators
			if len(r.m.docs) > 0 {
				d := r.m.docs[r.byte()%len(r.m.docs)].Data
				cut := r.byte() % (len(d) + 1)
				if op&16 == 0 {
					r.insert(bytes.Clone(d[cut:]))
				} else {
					r.insert(append(bytes.Clone(d[:cut]), r.sym()))
				}
			}
		case 5, 6, 7, 8:
			data := make([]byte, 1+r.byte()%80)
			for i := range data {
				data[i] = r.sym()
			}
			r.insert(data)
		case 9, 10, 11, 12: // delete a live document; runs of these cross the rebuild threshold
			if len(r.m.docs) > 0 {
				i := r.byte() % len(r.m.docs)
				id := r.m.docs[i].ID
				if !r.tr.Delete(id) {
					r.t.Fatalf("Delete(%d) of a live document reported absent", id)
				}
				r.m.docs = slices.Delete(r.m.docs, i, i+1)
			}
		case 13: // delete what is not there
			if r.tr.Delete(r.nextID + 1000) {
				r.t.Fatal("Delete of an ID never inserted reported present")
			}
		default:
			r.check()
		}
	}
	r.check()
}

func (r *opRunner) insert(data []byte) {
	r.nextID++
	r.tr.Insert(doc.Doc{ID: r.nextID, Data: data})
	r.m.docs = append(r.m.docs, doc.Doc{ID: r.nextID, Data: data})
}

// check compares every read the tree offers with the model.
func (r *opRunner) check() {
	t, tr, m := r.t, r.tr, &r.m
	t.Helper()
	total := 0
	for _, d := range m.docs {
		total += len(d.Data)
	}
	if tr.DocCount() != len(m.docs) || tr.Len() != total {
		t.Fatalf("DocCount=%d Len=%d, model has %d documents of %d symbols", tr.DocCount(), tr.Len(), len(m.docs), total)
	}
	if tr.DeletedSymbols() > max(tr.Len(), 64) {
		t.Fatalf("%d deleted symbols held against %d live: rebuild overdue", tr.DeletedSymbols(), tr.Len())
	}
	live := tr.LiveDocs()
	if len(live) != len(m.docs) {
		t.Fatalf("LiveDocs lists %d documents, want %d", len(live), len(m.docs))
	}
	for i, d := range m.docs {
		if live[i].ID != d.ID || !bytes.Equal(live[i].Data, d.Data) {
			t.Fatalf("LiveDocs[%d] = %d %q, want %d %q (insertion order)", i, live[i].ID, live[i].Data, d.ID, d.Data)
		}
		if n, ok := tr.DocLen(d.ID); !ok || n != len(d.Data) || !tr.Has(d.ID) {
			t.Fatalf("DocLen(%d) = %d, %v; want %d", d.ID, n, ok, len(d.Data))
		}
		off, length := r.byte()%(len(d.Data)+2)-1, r.byte()%(len(d.Data)+2)
		lo := min(max(off, 0), len(d.Data))
		want := d.Data[lo:min(lo+length, len(d.Data))]
		if got, ok := tr.Extract(d.ID, off, length); !ok || !bytes.Equal(got, want) {
			t.Fatalf("Extract(%d, %d, %d) = %q, %v; want %q", d.ID, off, length, got, ok, want)
		}
	}
	ids := tr.LiveIDs()
	slices.Sort(ids)
	for i, d := range m.docs { // model IDs ascend: they are handed out in insertion order
		if ids[i] != d.ID {
			t.Fatalf("LiveIDs = %v, want the model's", ids)
		}
	}
	if tr.Has(r.nextID+1) || tr.Has(0) {
		t.Fatal("Has reports an ID never inserted")
	}

	patterns := [][]byte{nil, {r.sym()}, {r.sym(), r.sym()}, {r.sym(), r.sym(), r.sym(), r.sym()}, {0}, {r.sym(), 0}}
	for range min(len(m.docs), 4) {
		d := m.docs[r.byte()%len(m.docs)].Data
		if len(d) == 0 {
			continue
		}
		cut := r.byte() % len(d)
		patterns = append(patterns,
			d,                                     // a whole document: ends exactly at its terminator
			d[cut:],                               // a suffix: likewise
			d[:cut+1],                             // a prefix: ends mid-edge or at a node
			append(bytes.Clone(d[cut:]), r.sym()), // runs past the terminator
			d[cut:min(cut+1+r.byte()%6, len(d))],
		)
	}
	for _, p := range patterns {
		want := m.find(p)
		if got := sortedFind(tr, p); !occsEqual(got, want) {
			t.Fatalf("Find(%q) = %v, want %v", p, got, want)
		}
		if n := tr.Count(p); n != len(want) {
			t.Fatalf("Count(%q) = %d, want %d", p, n, len(want))
		}
		if len(want) > 1 {
			stopAt, seen := 1+r.byte()%len(want), 0
			tr.FindFunc(p, func(Occurrence) bool {
				seen++
				return seen < stopAt
			})
			if seen != stopAt {
				t.Fatalf("FindFunc(%q) told to stop after %d visited %d", p, stopAt, seen)
			}
		}
	}
}

// TestDifferential drives seeded op streams — skewed towards inserts,
// towards deletes (rebuild after rebuild), and over alphabets from unary
// to wide — through the tree and the scanning model.
func TestDifferential(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := make([]byte, 3000)
		rng.Read(in)
		if seed%3 == 1 { // delete-heavy: turn most inserts of random text into deletes
			for i, b := range in {
				if b%16 >= 7 && b%16 <= 8 {
					in[i] = 9
				}
			}
		}
		r := &opRunner{t: t, tr: New(), in: in, sigma: []int{1, 2, 3, 4, 26, 255}[seed%6]}
		r.run()
	}
}

// FuzzTreeOps feeds arbitrary op streams to the same interpreter.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 5, 2, 3, 40, 3, 0, 14, 9, 0, 9, 0, 14}, uint8(2))
	f.Add([]byte{5, 70, 1, 2, 3, 1, 2, 3, 1, 2, 3, 4, 0, 1, 20, 0, 2, 9, 0, 9, 0, 9, 0, 14}, uint8(3))
	f.Add(bytes.Repeat([]byte{2, 0, 96, 9, 1}, 12), uint8(1))
	f.Fuzz(func(t *testing.T, in []byte, sigma uint8) {
		r := &opRunner{t: t, tr: New(), in: in, sigma: 1 + int(sigma)%255}
		r.run()
	})
}

// TestInsertAllocs pins the point of the flat layout: an insert into a
// tree whose slabs are already grown allocates a handful of times, not
// once or more per suffix, and nothing the tree is made of gives the
// garbage collector a pointer to follow per node, symbol or document.
func TestInsertAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	docs := make([]doc.Doc, 64)
	for i := range docs {
		docs[i] = doc.Doc{ID: uint64(i), Data: randomData(rng, 1<<10, 26)}
	}
	tr := New()
	// Grow the slabs, then empty the tree: the rebuild keeps them.
	for _, d := range docs {
		tr.Insert(d)
	}
	for _, d := range docs {
		tr.Delete(d.ID)
	}
	if tr.DocCount() != 0 || tr.DeletedSymbols() != 0 {
		t.Fatalf("tree not emptied: %d documents, %d deleted symbols", tr.DocCount(), tr.DeletedSymbols())
	}
	next := 0
	avg := testing.AllocsPerRun(len(docs)/2-1, func() {
		tr.Insert(docs[next])
		next++
	})
	if avg > 8 {
		t.Errorf("warm 1 KiB insert allocates %.1f times, want at most 8", avg)
	}
	if got := tr.Count(docs[0].Data[100:110]); got < 1 {
		t.Fatalf("document inserted into the recycled slabs not found")
	}

	for _, typ := range []reflect.Type{reflect.TypeOf(node{}), reflect.TypeOf(docEntry{})} {
		for i := range typ.NumField() {
			switch k := typ.Field(i).Type.Kind(); k {
			case reflect.Int32, reflect.Uint64, reflect.Bool:
			default:
				t.Errorf("%s.%s is a %s: per-element records must stay pointer-free", typ.Name(), typ.Field(i).Name, k)
			}
		}
	}
}
