package baseline

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"dyncoll/internal/core"
	"dyncoll/internal/doc"
	"dyncoll/internal/oracle"
	"dyncoll/internal/textgen"
)

// index is the interface both baselines satisfy, so the conformance suite
// runs over each.
type index interface {
	Insert(doc.Doc) error
	Delete(id uint64) bool
	Has(id uint64) bool
	Count(pattern []byte) int
	Find(pattern []byte) []Occurrence
	FindFunc(pattern []byte, fn func(Occurrence) bool)
	Extract(id uint64, off, length int) ([]byte, bool)
	DocLen(id uint64) (int, bool)
	Len() int
	DocCount() int
	SizeBits() int64
}

var (
	_ index = (*DynFM)(nil)
	_ index = (*STIndex)(nil)
)

type blVariant struct {
	name string
	mk   func() index
}

func blVariants() []blVariant {
	return []blVariant{
		{"dynfm/s4", func() index { return NewDynFM(4) }},
		{"dynfm/s16", func() index { return NewDynFM(16) }},
		{"dynfm/s1", func() index { return NewDynFM(1) }},
		{"stindex", func() index { return NewSTIndex() }},
	}
}

func TestBaselineConformance(t *testing.T) {
	for _, v := range blVariants() {
		t.Run(v.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(100))
			gen := textgen.NewCollection(textgen.CollectionOptions{
				Sigma: 6, MinLen: 3, MaxLen: 150, Seed: 200,
			})
			x := v.mk()
			m := new(oracle.Model)
			var live []uint64
			for step := 0; step < 250; step++ {
				if len(live) == 0 || rng.Float64() < 0.6 {
					d := gen.NextDoc()
					x.Insert(d)
					m.Insert(d)
					live = append(live, d.ID)
				} else {
					i := rng.Intn(len(live))
					id := live[i]
					live = append(live[:i], live[i+1:]...)
					if !x.Delete(id) {
						t.Fatalf("Delete(%d) failed", id)
					}
					m.Delete(id)
				}
				if x.Len() != m.Len() {
					t.Fatalf("step %d: Len = %d, want %d", step, x.Len(), m.Len())
				}
				if step%20 == 0 {
					if err := oracle.CheckDocs[Occurrence](m, x, []byte{1}, []byte{2, 3}, []byte{1, 1, 4}); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
			if err := oracle.CheckDocs[Occurrence](m, x); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBaselineDeleteUnknown(t *testing.T) {
	for _, v := range blVariants() {
		t.Run(v.name, func(t *testing.T) {
			x := v.mk()
			if x.Delete(7) {
				t.Fatal("Delete on empty index returned true")
			}
			x.Insert(doc.Doc{ID: 1, Data: []byte{1, 2}})
			if x.Delete(7) {
				t.Fatal("Delete of absent ID returned true")
			}
			if !x.Delete(1) || x.Len() != 0 {
				t.Fatal("Delete of present ID failed")
			}
		})
	}
}

func TestBaselineEmptyDoc(t *testing.T) {
	for _, v := range blVariants() {
		t.Run(v.name, func(t *testing.T) {
			x := v.mk()
			x.Insert(doc.Doc{ID: 5})
			if x.Len() != 0 || x.DocCount() != 1 {
				t.Fatalf("empty doc: Len=%d DocCount=%d", x.Len(), x.DocCount())
			}
			if got := x.Count([]byte{1}); got != 0 {
				t.Fatalf("Count over empty doc = %d", got)
			}
			if !x.Delete(5) || x.DocCount() != 0 {
				t.Fatal("deleting empty doc failed")
			}
		})
	}
}

func TestBaselineRepeatedPayloads(t *testing.T) {
	for _, v := range blVariants() {
		t.Run(v.name, func(t *testing.T) {
			x := v.mk()
			payload := []byte{2, 1, 2, 1, 2}
			for i := 1; i <= 8; i++ {
				x.Insert(doc.Doc{ID: uint64(i), Data: payload})
			}
			if got := x.Count([]byte{2, 1, 2}); got != 16 {
				t.Fatalf("Count = %d, want 16", got)
			}
			for i := 1; i <= 4; i++ {
				x.Delete(uint64(i))
			}
			if got := x.Count([]byte{2, 1, 2}); got != 8 {
				t.Fatalf("Count after deletes = %d, want 8", got)
			}
			occs := x.Find([]byte{1, 2, 1})
			if len(occs) != 4 {
				t.Fatalf("Find returned %d occurrences, want 4", len(occs))
			}
		})
	}
}

func TestBaselineFindFuncEarlyStop(t *testing.T) {
	for _, v := range blVariants() {
		t.Run(v.name, func(t *testing.T) {
			x := v.mk()
			for i := 1; i <= 10; i++ {
				x.Insert(doc.Doc{ID: uint64(i), Data: []byte{3, 3, 3}})
			}
			n := 0
			x.FindFunc([]byte{3, 3}, func(Occurrence) bool {
				n++
				return n < 4
			})
			if n != 4 {
				t.Fatalf("early stop visited %d", n)
			}
		})
	}
}

func TestDynFMExtractWindows(t *testing.T) {
	x := NewDynFM(4)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	x.Insert(doc.Doc{ID: 1, Data: data})
	x.Insert(doc.Doc{ID: 2, Data: []byte{9, 9}})
	cases := []struct{ off, n int }{
		{0, 8}, {0, 1}, {7, 1}, {2, 4}, {4, 0},
	}
	for _, c := range cases {
		got, ok := x.Extract(1, c.off, c.n)
		if !ok || !bytes.Equal(got, data[c.off:c.off+c.n]) {
			t.Fatalf("Extract(1,%d,%d) = %v,%v", c.off, c.n, got, ok)
		}
	}
	if got, ok := x.Extract(1, 5, 10); !ok || !bytes.Equal(got, data[5:]) {
		t.Fatalf("Extract(1,5,10) = %v,%v; want the window clamped to %v", got, ok, data[5:])
	}
	if _, ok := x.Extract(3, 0, 1); ok {
		t.Fatal("extract of unknown doc succeeded")
	}
}

func TestDynFMDuplicateErrors(t *testing.T) {
	x := NewDynFM(4)
	if err := x.Insert(doc.Doc{ID: 1, Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if err := x.Insert(doc.Doc{ID: 1, Data: []byte{2}}); !errors.Is(err, core.ErrDuplicateID) {
		t.Fatalf("duplicate insert: got %v, want ErrDuplicateID", err)
	}
}

func TestDynFMZeroByteErrors(t *testing.T) {
	x := NewDynFM(4)
	if err := x.Insert(doc.Doc{ID: 1, Data: []byte{1, 0}}); !errors.Is(err, core.ErrReservedByte) {
		t.Fatalf("zero byte: got %v, want ErrReservedByte", err)
	}
}

func TestDynFMQuick(t *testing.T) {
	f := func(payloads [][]byte, pattern []byte, delMask uint8) bool {
		if len(payloads) > 8 {
			payloads = payloads[:8]
		}
		clean := func(b []byte) []byte {
			if len(b) > 40 {
				b = b[:40]
			}
			out := make([]byte, len(b))
			for i, x := range b {
				out[i] = x%3 + 1
			}
			return out
		}
		x := NewDynFM(3)
		m := new(oracle.Model)
		for i, p := range payloads {
			d := doc.Doc{ID: uint64(i + 1), Data: clean(p)}
			x.Insert(d)
			m.Insert(d)
		}
		for i := range payloads {
			if delMask&(1<<i) != 0 {
				x.Delete(uint64(i + 1))
				m.Delete(uint64(i + 1))
			}
		}
		p := clean(pattern)
		if len(p) == 0 {
			p = []byte{2}
		}
		return oracle.CheckDocs[Occurrence](m, x, p) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestDynFMSingleSymbolDocs(t *testing.T) {
	x := NewDynFM(2)
	for i := 1; i <= 5; i++ {
		x.Insert(doc.Doc{ID: uint64(i), Data: []byte{1}})
	}
	if got := x.Count([]byte{1}); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	occs := x.Find([]byte{1})
	if len(occs) != 5 {
		t.Fatalf("Find = %v", occs)
	}
	for i := 1; i <= 5; i++ {
		if !x.Delete(uint64(i)) {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	if x.Len() != 0 {
		t.Fatalf("Len = %d after draining", x.Len())
	}
}

func TestDynFMLongRepetitive(t *testing.T) {
	// Highly repetitive text stresses deep LF chains and rank ties.
	x := NewDynFM(8)
	m := new(oracle.Model)
	data := bytes.Repeat([]byte{1, 2}, 500)
	d := doc.Doc{ID: 1, Data: data}
	x.Insert(d)
	m.Insert(d)
	d2 := doc.Doc{ID: 2, Data: bytes.Repeat([]byte{2, 1}, 300)}
	x.Insert(d2)
	m.Insert(d2)
	if err := oracle.CheckDocs[Occurrence](m, x, []byte{1, 2, 1}, []byte{2, 1, 2}, []byte{1, 1}, []byte{2, 2}, []byte{1, 2, 1, 2}); err != nil {
		t.Fatal(err)
	}
}

func TestSTIndexSizeLarger(t *testing.T) {
	// The suffix tree must cost more space than the compressed baseline on
	// the same content — that's its role in the space benchmarks.
	gen := textgen.NewCollection(textgen.CollectionOptions{
		Sigma: 8, Skew: 0.7, MinLen: 100, MaxLen: 400, Seed: 300,
	})
	docs := gen.GenerateTotal(40_000)
	st := NewSTIndex()
	fm := NewDynFM(16)
	for _, d := range docs {
		st.Insert(d)
		fm.Insert(d)
	}
	if st.SizeBits() <= fm.SizeBits() {
		t.Fatalf("suffix tree (%d bits) should exceed DynFM (%d bits)",
			st.SizeBits(), fm.SizeBits())
	}
}
