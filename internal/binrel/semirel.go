package binrel

import (
	"sort"

	"dyncoll/internal/sparsebits"
	"dyncoll/internal/wavelet"
)

// Pair is one (object, label) element of a relation. It is both the
// engine item and its own key: pairs are comparable, so the generic
// ladder routes deletions and membership through its owner map in O(1).
type Pair struct {
	Object uint64
	Label  uint64
}

// semiRel is the deletion-only compressed relation — the static payload
// the generic engine dynamizes — built from the static relation
// encoding of Barbay et al.: static S and N plus lazy-deletion bitmaps.
type semiRel struct {
	objects []uint64 // sorted distinct objects (the paper's GN bitmap role)
	labels  []uint64 // sorted distinct labels (the paper's GC bitmap role)
	starts  []int32  // starts[i]..starts[i+1] is object i's range in S (the N sequence)

	s *wavelet.Tree // labels of S in the local alphabet

	// Deletion state. All three are nil until the store's first Delete
	// — nil means "every pair is live" — and materialize together then
	// (see materialize), whether the store was built, loaded or mapped.
	//
	// alive is D: 1 = pair live. It carries a rank structure (the paper
	// cites [20] for this role), so countLabels counts in O(log n).
	alive *sparsebits.Dense

	// perLabel[a] marks which occurrences of local label a are live
	// (the D_a bitmaps) plus a live counter for O(1) counting.
	perLabel  []*sparsebits.Dense
	liveCount []int32

	live int // live pairs
	dead int // deleted pairs
}

// buildSemi constructs the deletion-only structure over pairs. The pair
// slice is sorted in place by (object, label).
func buildSemi(pairs []Pair) *semiRel {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Object != pairs[j].Object {
			return pairs[i].Object < pairs[j].Object
		}
		return pairs[i].Label < pairs[j].Label
	})
	r := &semiRel{live: len(pairs)}

	// Local object table and the N boundaries.
	for i, p := range pairs {
		if i == 0 || p.Object != pairs[i-1].Object {
			r.objects = append(r.objects, p.Object)
			r.starts = append(r.starts, int32(i))
		}
	}
	r.starts = append(r.starts, int32(len(pairs)))

	// Local label alphabet.
	seen := make(map[uint64]struct{})
	for _, p := range pairs {
		if _, ok := seen[p.Label]; !ok {
			seen[p.Label] = struct{}{}
			r.labels = append(r.labels, p.Label)
		}
	}
	sort.Slice(r.labels, func(i, j int) bool { return r.labels[i] < r.labels[j] })

	// S in the local alphabet, Huffman-shaped so the space tracks the
	// zero-order entropy H of the label sequence (Theorem 2's nH term).
	syms := make([]uint32, len(pairs))
	counts := make([]int, len(r.labels))
	for i, p := range pairs {
		a := r.labelSym(p.Label)
		syms[i] = uint32(a)
		counts[a]++
	}
	r.s = wavelet.NewHuffman(syms, len(r.labels))
	return r
}

// materialize allocates the all-live deletion state on the first
// Delete; no-op once it exists. O(n) in the pair count.
func (r *semiRel) materialize() {
	if r.alive != nil {
		return
	}
	r.alive = sparsebits.NewDense(r.s.Len(), true)
	r.perLabel = make([]*sparsebits.Dense, len(r.labels))
	r.liveCount = make([]int32, len(r.labels))
	for a := range r.labels {
		c := r.s.Count(uint32(a))
		r.perLabel[a] = sparsebits.NewDense(c, false)
		r.liveCount[a] = int32(c)
	}
}

// labelSym maps a client label to its local symbol, or -1.
func (r *semiRel) labelSym(label uint64) int {
	i := sort.Search(len(r.labels), func(i int) bool { return r.labels[i] >= label })
	if i < len(r.labels) && r.labels[i] == label {
		return i
	}
	return -1
}

// objectIdx maps a client object to its local index, or -1.
func (r *semiRel) objectIdx(object uint64) int {
	i := sort.Search(len(r.objects), func(i int) bool { return r.objects[i] >= object })
	if i < len(r.objects) && r.objects[i] == object {
		return i
	}
	return -1
}

// objectAt maps a position of S back to the client object owning it.
func (r *semiRel) objectAt(pos int) uint64 {
	i := sort.Search(len(r.starts)-1, func(i int) bool { return r.starts[i+1] > int32(pos) })
	return r.objects[i]
}

// findPos returns the position in S of the pair (object, label), or -1.
func (r *semiRel) findPos(object, label uint64) int {
	oi := r.objectIdx(object)
	if oi < 0 {
		return -1
	}
	a := r.labelSym(label)
	if a < 0 {
		return -1
	}
	lo, hi := int(r.starts[oi]), int(r.starts[oi+1])
	before, upto := r.s.RankPair(uint32(a), lo, hi)
	if upto == before {
		return -1
	}
	return r.s.Select(uint32(a), before+1)
}

// related reports whether the pair is present and live.
func (r *semiRel) related(object, label uint64) bool {
	pos := r.findPos(object, label)
	return pos >= 0 && (r.alive == nil || r.alive.Get(pos))
}

// Delete marks the pair dead, reporting whether it was live here
// (engine.Store; every pair weighs 1).
func (r *semiRel) Delete(p Pair) (int, bool) {
	pos := r.findPos(p.Object, p.Label)
	if pos < 0 {
		return 0, false
	}
	r.materialize()
	if !r.alive.Get(pos) {
		return 0, false
	}
	r.alive.Zero(pos)
	sym, j := r.s.AccessRank(pos) // symbol and its occurrences before pos
	a := int(sym)
	r.perLabel[a].Zero(j)
	r.liveCount[a]--
	r.live--
	r.dead++
	return 1, true
}

// labelsOf streams the live labels of object; stops when fn returns
// false. Reports each label in O(1) + one wavelet access.
func (r *semiRel) labelsOf(object uint64, fn func(label uint64) bool) bool {
	oi := r.objectIdx(object)
	if oi < 0 {
		return true
	}
	lo, hi := int(r.starts[oi]), int(r.starts[oi+1])
	ok := true
	if r.alive == nil { // no deletions: the whole range is live
		for pos := lo; pos < hi; pos++ {
			if !fn(r.labels[r.s.Access(pos)]) {
				return false
			}
		}
		return true
	}
	r.alive.Report(lo, hi-1, func(pos int) bool {
		if !fn(r.labels[r.s.Access(pos)]) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// objectsOf streams the live objects related to label.
func (r *semiRel) objectsOf(label uint64, fn func(object uint64) bool) bool {
	a := r.labelSym(label)
	if a < 0 {
		return true
	}
	if r.perLabel == nil { // no deletions: every occurrence is live
		c := r.s.Count(uint32(a))
		for j := 0; j < c; j++ {
			pos := r.s.Select(uint32(a), j+1)
			if !fn(r.objectAt(pos)) {
				return false
			}
		}
		return true
	}
	da := r.perLabel[a]
	ok := true
	da.Report(0, da.Len()-1, func(j int) bool {
		pos := r.s.Select(uint32(a), j+1)
		if !fn(r.objectAt(pos)) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// countLabels counts live labels of object in O(log n).
func (r *semiRel) countLabels(object uint64) int {
	oi := r.objectIdx(object)
	if oi < 0 {
		return 0
	}
	lo, hi := int(r.starts[oi]), int(r.starts[oi+1])
	if r.alive == nil { // no deletions
		return hi - lo
	}
	return r.alive.Count1(lo, hi-1)
}

// countObjects counts live objects related to label in O(1).
func (r *semiRel) countObjects(label uint64) int {
	a := r.labelSym(label)
	if a < 0 {
		return 0
	}
	if r.liveCount == nil { // no deletions
		return r.s.Count(uint32(a))
	}
	return int(r.liveCount[a])
}

// pairsFunc streams the live pairs; stops when fn returns false,
// reporting whether enumeration ran to completion. Live positions are
// visited in increasing order, so the labels come off the wavelet
// tree's sequential decoder (no rank walk per pair; dead positions are
// skipped through it) and the owning object off a running index into
// starts. Every relation and graph rebuild reads its sources this way,
// through LiveItems.
func (r *semiRel) pairsFunc(fn func(Pair) bool) bool {
	n := r.s.Len()
	if n == 0 {
		return true
	}
	dec := r.s.NewDecoder()
	next, oi := 0, 0 // next undecoded position; object whose range holds the last visited one
	visit := func(pos int) bool {
		dec.Skip(pos - next)
		next = pos + 1
		for int(r.starts[oi+1]) <= pos {
			oi++
		}
		return fn(Pair{Object: r.objects[oi], Label: r.labels[dec.Next()]})
	}
	if r.alive == nil { // no deletions: every position is live
		for pos := 0; pos < n; pos++ {
			if !visit(pos) {
				return false
			}
		}
		return true
	}
	ok := true
	r.alive.Report(0, n-1, func(pos int) bool {
		ok = visit(pos)
		return ok
	})
	return ok
}

// LiveItems lists all live pairs (engine.Store; used by rebuilds).
func (r *semiRel) LiveItems() []Pair {
	out := make([]Pair, 0, r.live)
	r.pairsFunc(func(p Pair) bool {
		out = append(out, p)
		return true
	})
	return out
}

// LiveKeys lists all live pair keys — for relations a pair is its own
// key, so this is LiveItems (engine.Store).
func (r *semiRel) LiveKeys() []Pair { return r.LiveItems() }

// LiveWeight and DeadWeight report live/deleted pair counts
// (engine.Store).
func (r *semiRel) LiveWeight() int { return r.live }
func (r *semiRel) DeadWeight() int { return r.dead }

// SizeBits estimates the footprint (engine.Store).
func (r *semiRel) SizeBits() int64 {
	total := r.s.SizeBits()
	total += int64(len(r.objects))*64 + int64(len(r.labels))*64 + int64(len(r.starts))*32
	total += int64(len(r.liveCount)) * 32
	if r.alive != nil {
		total += r.alive.SizeBits()
	}
	for _, d := range r.perLabel {
		total += d.SizeBits()
	}
	return total
}
