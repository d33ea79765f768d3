// Package oracle is the one reference every structure is tested against:
// seeded op streams, scanning models that answer every query by brute
// force, and checks that report a structure's first answer that differs.
// It imports only the standard library and internal/doc, so any
// package's tests may use it.
package oracle

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"dyncoll/internal/doc"
)

// DocOp is one atomic mutation of a collection, a batch insert or delete:
// one WAL record on a durable collection.
type DocOp struct {
	Insert []doc.Doc
	Delete []uint64
}

// PairOp adds the pair (A, B) to a relation or graph, or deletes it.
type PairOp struct {
	A, B uint64
	Del  bool
}

var words = []string{"abracadabra", "alakazam", "hocus pocus", "open sesame", "sim sala bim"}

// DocStream returns n operations that depend on seed alone; IDs count up
// from 1 and deletes name live documents. Besides churn (batches of one
// to six short texts, deletes of random documents) it has the shapes
// that stress a ladder whose C0 holds c0 bytes: tiny and huge documents
// alternating, documents one byte over c0, and oldest-first deletes.
func DocStream(seed int64, n, c0 int) []DocOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []DocOp
	var live []uint64 // oldest first
	next := uint64(1)
	mk := func(size int) doc.Doc { // size 0: a word and the ID
		w := words[rng.Intn(len(words))]
		data := fmt.Appendf(nil, "%s %d", w, next)
		if size > 0 {
			data = bytes.Repeat([]byte(w+" "), size)[:size]
		}
		live, next = append(live, next), next+1
		return doc.Doc{ID: next - 1, Data: data}
	}
	one := func(size int) DocOp { return DocOp{Insert: []doc.Doc{mk(size)}} }
	for len(ops) < n {
		switch r := rng.Intn(10); {
		case r < 5 || len(live) < 4:
			var op DocOp
			for range 1 + rng.Intn(6) {
				op.Insert = append(op.Insert, mk(0))
			}
			ops = append(ops, op)
		case r == 5:
			ops = append(ops, one(1+rng.Intn(2)), one(c0*(8+rng.Intn(9))), one(1+rng.Intn(2)), one(c0*(8+rng.Intn(9))))
		case r == 6:
			ops = append(ops, one(c0+1))
		case r == 7:
			k := 1 + rng.Intn(len(live)/4)
			ops = append(ops, DocOp{Delete: slices.Clone(live[:k])})
			live = live[k:]
		default:
			var del []uint64
			for range 1 + rng.Intn(3) {
				i := rng.Intn(len(live))
				del = append(del, live[i])
				live = slices.Delete(live, i, i+1)
			}
			ops = append(ops, DocOp{Delete: del})
		}
	}
	return ops[:n]
}

// PairStream returns n pair operations that depend on seed alone: adds
// of new pairs over [1, 48]², deletes of random live pairs, a hub object
// taking a burst of labels, and oldest-first deletes.
func PairStream(seed int64, n int) []PairOp {
	rng := rand.New(rand.NewSource(seed))
	var ops, live []PairOp // live: oldest first
	key := func() uint64 { return 1 + uint64(rng.Intn(48)) }
	add := func(a uint64, k int) { // k labels for a
		for range k {
			if p := (PairOp{A: a, B: key()}); !slices.Contains(live, p) {
				live, ops = append(live, p), append(ops, p)
			}
		}
	}
	del := func(i int) {
		ops = append(ops, PairOp{A: live[i].A, B: live[i].B, Del: true})
		live = slices.Delete(live, i, i+1)
	}
	for len(ops) < n {
		switch r := rng.Intn(10); {
		case r < 6 || len(live) < 8:
			add(key(), 1)
		case r == 6:
			add(key(), 8+rng.Intn(16))
		case r == 7:
			for range 1 + rng.Intn(len(live)/4) {
				del(0)
			}
		default:
			del(rng.Intn(len(live)))
		}
	}
	return ops[:n]
}

// Model is the scanning reference for a collection: the live documents,
// oldest first, and the IDs deleted so far.
type Model struct {
	docs []doc.Doc
	gone []uint64
}

func (m *Model) at(id uint64) int {
	return slices.IndexFunc(m.docs, func(d doc.Doc) bool { return d.ID == id })
}

// Insert adds d, whose ID must not be live; Delete removes the live
// document id and reports whether there was one.
func (m *Model) Insert(d doc.Doc) {
	m.docs = append(m.docs, doc.Doc{ID: d.ID, Data: bytes.Clone(d.Data)})
}

func (m *Model) Delete(id uint64) bool {
	i := m.at(id)
	if i < 0 {
		return false
	}
	m.docs = slices.Delete(m.docs, i, i+1)
	m.gone = append(m.gone, id)
	return true
}

// Apply applies op to the model.
func (m *Model) Apply(op DocOp) {
	for _, d := range op.Insert {
		m.Insert(d)
	}
	for _, id := range op.Delete {
		m.Delete(id)
	}
}

// Docs returns the live documents, oldest first; Has and DocLen answer
// for one of them.
func (m *Model) Docs() []doc.Doc    { return m.docs }
func (m *Model) Has(id uint64) bool { return m.at(id) >= 0 }
func (m *Model) DocLen(id uint64) (int, bool) {
	d, ok := m.Extract(id, 0, 1<<62)
	return len(d), ok
}

// Extract returns up to length bytes of the live document id from off,
// clamped as every structure clamps (doc.Clamp).
func (m *Model) Extract(id uint64, off, length int) ([]byte, bool) {
	i := m.at(id)
	if i < 0 {
		return nil, false
	}
	d := m.docs[i].Data
	off, length = doc.Clamp(off, length, len(d))
	return d[off : off+length], true
}

// Occ is the model's occurrence: a document ID and an offset in it.
// Occurrence is any of the module's occurrence types, all of its shape.
type Occ struct {
	DocID uint64
	Off   int
}
type Occurrence interface {
	~struct {
		DocID uint64
		Off   int
	}
}

// Find returns every occurrence of pattern, by ID and then offset; an
// empty pattern occurs at every offset. Count counts them.
func (m *Model) Find(pattern []byte) []Occ {
	var out []Occ
	for _, d := range m.docs {
		for off := 0; off < len(d.Data) && off+len(pattern) <= len(d.Data); off++ {
			if bytes.Equal(d.Data[off:off+len(pattern)], pattern) {
				out = append(out, Occ{d.ID, off})
			}
		}
	}
	return sortOccs(out)
}

func (m *Model) Count(pattern []byte) int { return len(m.Find(pattern)) }

func sortOccs(o []Occ) []Occ {
	slices.SortFunc(o, func(x, y Occ) int { return cmp.Or(cmp.Compare(x.DocID, y.DocID), cmp.Compare(x.Off, y.Off)) })
	return o
}

// DocIDs returns the live IDs, sorted; Len the live symbols; DocCount
// the live documents.
func (m *Model) DocIDs() (ids []uint64) {
	for _, d := range m.docs {
		ids = append(ids, d.ID)
	}
	return slices.Sorted(slices.Values(ids))
}
func (m *Model) Len() (n int) {
	for _, d := range m.docs {
		n += len(d.Data)
	}
	return n
}
func (m *Model) DocCount() int { return len(m.docs) }

// Reader is what every document structure answers, O being its
// occurrence type.
type Reader[O Occurrence] interface {
	Count(pattern []byte) int
	Find(pattern []byte) []O
	Extract(id uint64, off, length int) ([]byte, bool)
	Has(id uint64) bool
}

// CheckDocs puts the model's questions to s and returns the first answer
// that differs: Count and Find (in any order) of stream words, a byte, a
// number, an absent text, the middle of a live document at each quarter
// of the live set, and each extra pattern; Has, DocLen where s has it,
// and three extracts of every live document; Has and Extract of deleted
// and never-used IDs; and, where s has them, Len, DocCount and DocIDs.
func CheckDocs[O Occurrence](m *Model, s Reader[O], extra ...[]byte) error {
	if s, ok := s.(interface{ Len() int }); ok && s.Len() != m.Len() {
		return fmt.Errorf("Len = %d, want %d", s.Len(), m.Len())
	} else if s, ok := s.(interface{ DocCount() int }); ok && s.DocCount() != m.DocCount() {
		return fmt.Errorf("DocCount = %d, want %d", s.DocCount(), m.DocCount())
	} else if s, ok := s.(interface{ DocIDs() []uint64 }); ok && !slices.Equal(slices.Sorted(slices.Values(s.DocIDs())), m.DocIDs()) {
		return fmt.Errorf("DocIDs = %v, want %v", s.DocIDs(), m.DocIDs())
	}
	docLen, hasDocLen := s.(interface{ DocLen(uint64) (int, bool) })
	for _, d := range m.docs {
		n, ok := len(d.Data), s.Has(d.ID)
		got := n
		if ok && hasDocLen {
			got, ok = docLen.DocLen(d.ID)
		}
		if !ok || got != n {
			return fmt.Errorf("live document %d: Has, DocLen = %v, %d; want true, %d", d.ID, ok, got, n)
		}
		for _, r := range [][2]int{{0, n}, {n / 3, 5}, {n - 2, 10}} {
			want, _ := m.Extract(d.ID, r[0], r[1])
			if got, ok := s.Extract(d.ID, r[0], r[1]); !ok || !bytes.Equal(got, want) {
				return fmt.Errorf("Extract(%d, %d, %d) = %q, %v; want %q", d.ID, r[0], r[1], got, ok, want)
			}
		}
	}
	for _, id := range append([]uint64{0, 1 << 40}, m.gone[max(0, len(m.gone)-8):]...) {
		if _, ok := s.Extract(id, 0, 1); !m.Has(id) && (ok || s.Has(id)) {
			return fmt.Errorf("document %d answers, but it is not live", id)
		}
	}
	probes := [][]byte{[]byte("abra"), []byte("a"), []byte("sim sala"), []byte(" 1"), []byte("zzz")}
	for q := range min(4, len(m.docs)) {
		d := m.docs[q*len(m.docs)/4].Data
		probes = append(probes, d[len(d)/2:min(len(d)/2+6, len(d))])
	}
	for _, p := range append(probes, extra...) {
		want := m.Find(p)
		if got := s.Count(p); got != len(want) {
			return fmt.Errorf("Count(%q) = %d, want %d", p, got, len(want))
		}
		var got []Occ
		for _, o := range s.Find(p) {
			got = append(got, Occ(o))
		}
		if !slices.Equal(sortOccs(got), want) {
			return fmt.Errorf("Find(%q) = %v, want %v", p, got, want)
		}
	}
	return nil
}

// PairModel is the scanning reference for a relation or graph: each pair
// ever added, mapped to whether it is live.
type PairModel struct{ pairs map[[2]uint64]bool }

// Add adds (a, b) and reports whether it was absent; Delete removes it
// and reports whether it was live.
func (m *PairModel) Add(a, b uint64) bool {
	if m.pairs == nil {
		m.pairs = map[[2]uint64]bool{}
	}
	fresh := !m.pairs[[2]uint64{a, b}]
	m.pairs[[2]uint64{a, b}] = true
	return fresh
}
func (m *PairModel) Delete(a, b uint64) (live bool) {
	if live = m.Related(a, b); live {
		m.pairs[[2]uint64{a, b}] = false
	}
	return live
}

// Apply applies op to the model.
func (m *PairModel) Apply(op PairOp) {
	if op.Del {
		m.Delete(op.A, op.B)
	} else {
		m.Add(op.A, op.B)
	}
}

// Related reports whether (a, b) is live; Len counts the live pairs.
func (m *PairModel) Related(a, b uint64) bool { return m.pairs[[2]uint64{a, b}] }
func (m *PairModel) Len() int                 { return len(m.Pairs()) }

// Pairs returns the live pairs, sorted.
func (m *PairModel) Pairs() [][2]uint64 {
	var out [][2]uint64
	for p, live := range m.pairs {
		if live {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, func(x, y [2]uint64) int { return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1])) })
	return out
}

// Labels returns the labels related to a, sorted; Objects the objects
// related to b, sorted.
func (m *PairModel) Labels(a uint64) []uint64  { return m.side(a, 0) }
func (m *PairModel) Objects(b uint64) []uint64 { return m.side(b, 1) }

func (m *PairModel) side(key uint64, i int) []uint64 {
	var out []uint64
	for _, p := range m.Pairs() {
		if p[i] == key {
			out = append(out, p[1-i])
		}
	}
	return out
}

// keys returns every key side i of a pair has held and two never used.
func (m *PairModel) keys(i int) []uint64 {
	out := []uint64{0, 1 << 40}
	for p := range maps.Keys(m.pairs) {
		out = append(out, p[i])
	}
	return slices.Compact(slices.Sorted(slices.Values(out)))
}

// PairReader is what every pair structure answers, under a relation's
// names.
type PairReader interface {
	Related(a, b uint64) bool
	Labels(a uint64) []uint64
	Objects(b uint64) []uint64
	CountLabels(a uint64) int
	CountObjects(b uint64) int
	Len() int
}

// CheckPairs puts the model's questions to s and returns the first answer
// that differs: Len; Labels (sorted) and CountLabels of every object ever
// used and of two never used; Objects and CountObjects likewise for
// labels; Related of every pair of those keys.
func CheckPairs(m *PairModel, s PairReader) error {
	if s.Len() != m.Len() {
		return fmt.Errorf("Len = %d, want %d", s.Len(), m.Len())
	}
	objs, labs := m.keys(0), m.keys(1)
	for i, keys := range [][]uint64{objs, labs} {
		name, list, count := "Labels", s.Labels, s.CountLabels
		if i == 1 {
			name, list, count = "Objects", s.Objects, s.CountObjects
		}
		for _, k := range keys {
			if got, want := list(k), m.side(k, i); !slices.Equal(got, want) || count(k) != len(want) {
				return fmt.Errorf("%s(%d) = %v (count %d), want %v", name, k, got, count(k), want)
			}
		}
	}
	for _, a := range objs {
		for _, b := range labs {
			if s.Related(a, b) != m.Related(a, b) {
				return fmt.Errorf("Related(%d, %d) = %v, want %v", a, b, !m.Related(a, b), m.Related(a, b))
			}
		}
	}
	return nil
}
