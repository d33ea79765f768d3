// Package sa provides suffix-array construction, the substrate behind
// every static index in this repository.
//
// Two construction algorithms are included:
//
//   - SA-IS (Nong, Zhang, Chan 2009): linear-time induced sorting, the
//     production path;
//   - prefix doubling (Manber–Myers flavour, O(n log n) with radix-free
//     sort.Slice comparisons): a compact reference used to cross-check
//     SA-IS in property tests.
//
// The paper's Transformations require a "(u(n), w(n))-constructible"
// static index; SA-IS gives u(n)=O(1) for the suffix-sorting step, which
// dominates index construction together with the O(n log σ) wavelet-tree
// build.
package sa

// Workspace holds reusable construction buffers for repeated suffix-
// array builds. The engine's rebuild pipeline constructs thousands of
// static indexes over its lifetime; routing them through a workspace
// replaces the O(n) (and recursive o(n)) allocations of every build
// with buffer reuse. The zero value is ready to use. A Workspace is
// not safe for concurrent use; pool one per build goroutine.
type Workspace struct {
	sa []int32 // top-level suffix buffer
	// levels[d] is the scratch of recursion depth d. Every level's
	// buffers stay live while the levels below it run, so nothing can be
	// shared between depths; giving each depth its own named buffers
	// makes a second build of the same text allocation-free by
	// construction. Each level at least halves the text, so 32 depths
	// cover any int32-indexed input.
	levels [32]levelScratch
}

type levelScratch struct {
	typ      []uint8 // 1 = S-type, 0 = L-type; typ[n] is the sentinel's
	cnt, bkt []int32 // per-symbol counts and bucket cursors
	lms      []int32 // LMS positions in text order, packed at the back
	reduced  []int32 // the reduced problem's text ...
	sub      []int32 // ... and its suffix array
}

// Grow returns buf resized to n, reallocating only when capacity is
// insufficient; the returned contents are unspecified. Shared by every
// scratch-buffer consumer of the build pipeline (this package's
// workspace, fmindex's pooled build scratch).
func Grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// SuffixArray returns the suffix array of text: a permutation sa of
// [0,len(text)) such that the suffixes text[sa[0]:] < text[sa[1]:] < …
// in lexicographic order. Bytes compare unsigned. The implicit suffix
// ordering treats the end of the text as smaller than any byte (the usual
// sentinel convention).
func SuffixArray(text []byte) []int32 {
	if len(text) == 0 {
		return nil
	}
	sa := make([]int32, len(text)+1)
	saIS(text, sa, 256, &Workspace{}, 0, false)
	return sa[1:]
}

// SuffixArrayWS is SuffixArray computed through a reusable workspace.
// The returned slice is owned by ws: it stays valid only until the next
// build through the same workspace, and callers must copy anything they
// keep.
func SuffixArrayWS(text []byte, ws *Workspace) []int32 {
	if len(text) == 0 {
		return nil
	}
	ws.sa = Grow(ws.sa, len(text)+1)
	saIS(text, ws.sa, 256, ws, 0, false)
	return ws.sa[1:]
}

// MultiSuffixArrayWS is SuffixArrayWS in multi-string order, for a
// text that is a collection of strings each ended by a 0 byte (the
// last byte of text must be 0). A suffix compares as its string's tail
// through the string's own terminator, and the terminators order by
// position: each 0 byte is smaller than every later one and than every
// other byte. So the terminator suffixes are rows 0 … k-1 in text
// order, and suffixes whose tails agree through their terminators
// order by string index. Deleting a string then leaves the order of
// the other rows as it was, and appending strings interleaves rows
// without reordering any. The cost is plain SA-IS's: the terminators
// each get a bucket of their own, filled before every induction and
// never written by it, and no LMS substring that holds one equals
// another (Louza, Gog & Telles, "Induced suffix sorting for string
// collections", DCC 2016).
func MultiSuffixArrayWS(text []byte, ws *Workspace) []int32 {
	if len(text) == 0 {
		return nil
	}
	if text[len(text)-1] != 0 {
		panic("sa: multi-string text does not end with a terminator")
	}
	ws.sa = Grow(ws.sa, len(text)+1)
	saIS(text, ws.sa, 256, ws, 0, true)
	return ws.sa[1:]
}

// saIS computes the suffix array of t followed by a virtual sentinel —
// position n = len(t), smaller than every symbol — into sa, which has
// n+1 entries; sa[0] is always n. Symbols lie in [0, sigma). The text is
// read as the caller holds it: the top level runs over the []byte
// itself, the recursion over []int32 names. Scratch comes from ws's
// buffers for this recursion depth. multi asks for multi-string order
// (MultiSuffixArrayWS): symbol 0 is then a terminator.
func saIS[T byte | int32](t []T, sa []int32, sigma int, ws *Workspace, depth int, multi bool) {
	n := len(t)
	if n == 0 {
		sa[0] = 0
		return
	}
	lv := &ws.levels[depth]
	lv.typ = Grow(lv.typ, n+1)
	lv.cnt = Grow(lv.cnt, sigma)
	lv.bkt = Grow(lv.bkt, sigma)
	// At most every other position is LMS; one more for the sentinel
	// and one for the write that runs ahead of the cursor below.
	lv.lms = Grow(lv.lms, n/2+2)
	typ, cnt, bkt, lms := lv.typ, lv.cnt, lv.bkt, lv.lms

	// One right-to-left pass classifies every suffix, counts symbols
	// (bucket heads and tails are prefix sums over the counts) and
	// collects the LMS positions. A suffix's type changes only where
	// adjacent symbols differ, and position i+1 is LMS exactly when the
	// type steps from L at i to S at i+1; its position is written
	// unconditionally and kept by moving the cursor, so the pass has no
	// data-dependent branch beyond the symbol comparison.
	clear(cnt)
	w := len(lms) - 1
	lms[w] = int32(n) // the sentinel: S-type after an L-type, always LMS
	typ[n], typ[n-1] = 1, 0
	next, s := t[n-1], uint8(0)
	cnt[next]++
	for i := n - 2; i >= 0; i-- {
		c := t[i]
		cnt[c]++
		after := s
		if c != next {
			s = 0
			if c < next {
				s = 1
			}
		}
		if multi && c == 0 {
			s = 1 // a terminator is smaller than what follows it, a later terminator too
		}
		typ[i] = s
		lms[w-1] = int32(i + 1)
		w -= int(after &^ s)
		next = c
	}
	lms = lms[w:]
	m := len(lms) // LMS suffixes, the sentinel included

	// Step 1: place LMS suffixes at bucket tails in text order, induce.
	// In multi-string order the terminators' bucket is filled whole.
	fill(sa, -1)
	bucketTails(bkt, cnt)
	for _, p := range lms[:m-1] {
		c := t[p]
		if multi && c == 0 {
			continue
		}
		bkt[c]--
		sa[bkt[c]] = p
	}
	sa[0] = int32(n)
	if multi {
		placeTerminators(t, sa)
	}
	induce(t, sa, typ, cnt, bkt, multi)

	// Step 2: compact the sorted LMS substrings and name them. Names
	// live in the upper half of sa, indexed by position/2 (LMS positions
	// are at least two apart). The slot first carries its substring's
	// length — through the next LMS position inclusive, 0 for the two
	// that reach the sentinel and so equal nothing — so two substrings
	// are equal when their lengths and then their symbols are: equal
	// symbols ending on an S-after-L step force equal types throughout.
	k := 0
	for _, p := range sa {
		sa[k] = p
		if p > 0 {
			k += int(typ[p] &^ typ[p-1])
		}
	}
	names := sa[m:]
	for i, p := range lms[:m-1] {
		names[p/2] = lms[i+1] - p + 1
	}
	names[n/2] = 0
	if m > 1 {
		names[lms[m-2]/2] = 0
	}
	name := int32(-1)
	var prev, prevLen int32
	for _, p := range sa[:m] {
		l := names[p/2]
		same := l != 0 && l == prevLen
		for i := int32(0); same && i < l; i++ {
			same = t[p+i] == t[prev+i] && !(multi && t[p+i] == 0)
		}
		if !same {
			name++
		}
		prev, prevLen = p, l
		names[p/2] = name
	}

	// Step 3: sort the reduced problem — the names in text order, less
	// the sentinel's (name 0, unique and last), which the recursion
	// supplies itself.
	lv.reduced = Grow(lv.reduced, m-1)
	lv.sub = Grow(lv.sub, m)
	reduced, sub := lv.reduced, lv.sub
	for i, p := range lms[:m-1] {
		reduced[i] = names[p/2] - 1
	}
	if int(name)+1 == m {
		// All names unique: order directly.
		sub[0] = int32(m - 1)
		for i, nm := range reduced {
			sub[nm+1] = int32(i)
		}
	} else {
		saIS(reduced, sub, int(name), ws, depth+1, false)
	}

	// Step 4: place LMS suffixes in their final relative order, induce.
	fill(sa, -1)
	bucketTails(bkt, cnt)
	for i := m - 1; i >= 1; i-- {
		p := lms[sub[i]]
		c := t[p]
		if multi && c == 0 {
			continue
		}
		bkt[c]--
		sa[bkt[c]] = p
	}
	sa[0] = int32(n)
	if multi {
		placeTerminators(t, sa)
	}
	induce(t, sa, typ, cnt, bkt, multi)
}

// placeTerminators writes the positions of t's 0 bytes, in text order,
// to rows 1, 2, …: their final rows in multi-string order.
func placeTerminators[T byte | int32](t []T, sa []int32) {
	k := 1
	for i, c := range t {
		if c == 0 {
			sa[k] = int32(i)
			k++
		}
	}
}

func fill(s []int32, v int32) {
	for i := range s {
		s[i] = v
	}
}

// bucketHeads and bucketTails set bkt[c] to the first row of symbol c's
// bucket, or one past its last; row 0 is the sentinel's.
func bucketHeads(bkt, cnt []int32) {
	s := int32(1)
	for c, k := range cnt {
		bkt[c] = s
		s += k
	}
}

func bucketTails(bkt, cnt []int32) {
	s := int32(1)
	for c, k := range cnt {
		s += k
		bkt[c] = s
	}
}

// induce sorts the L-type suffixes left to right from the LMS suffixes
// already placed, then the S-type suffixes right to left from those. In
// multi-string order the terminators are in place already and neither
// pass moves one.
func induce[T byte | int32](t []T, sa []int32, typ []uint8, cnt, bkt []int32, multi bool) {
	bucketHeads(bkt, cnt)
	for i := 0; i < len(sa); i++ {
		if j := sa[i] - 1; j >= 0 && typ[j] == 0 {
			c := t[j]
			if multi && c == 0 {
				continue
			}
			sa[bkt[c]] = j
			bkt[c]++
		}
	}
	bucketTails(bkt, cnt)
	for i := len(sa) - 1; i >= 0; i-- {
		if j := sa[i] - 1; j >= 0 && typ[j] == 1 {
			c := t[j]
			if multi && c == 0 {
				continue
			}
			bkt[c]--
			sa[bkt[c]] = j
		}
	}
}
