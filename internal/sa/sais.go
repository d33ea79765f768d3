// Package sa provides suffix-array construction, the Burrows–Wheeler
// transform, and LCP arrays — the construction substrate behind every
// static index in this repository.
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
	t, sa []int32 // top-level text and suffix buffers
	// levels[d] is the scratch of recursion depth d. Every level's
	// buffers stay live while the levels below it run, so nothing can be
	// shared between depths; giving each depth its own named buffers
	// makes a second build of the same text allocation-free by
	// construction. Each level at least halves the text, so 32 depths
	// cover any int32-indexed input.
	levels [32]levelScratch
}

type levelScratch struct {
	isS                        []bool
	cnt, bkt                   []int32 // per-symbol counts and bucket cursors
	lmsPos, reduced, sortedLMS []int32
	sub                        []int32 // the reduced problem's suffix array
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
	n := len(text)
	if n == 0 {
		return nil
	}
	out := make([]int32, n)
	copy(out, SuffixArrayWS(text, &Workspace{}))
	return out
}

// SuffixArrayWS is SuffixArray computed through a reusable workspace.
// The returned slice is owned by ws: it stays valid only until the next
// build through the same workspace, and callers must copy anything they
// keep.
func SuffixArrayWS(text []byte, ws *Workspace) []int32 {
	n := len(text)
	if n == 0 {
		return nil
	}
	// Shift the alphabet by one so 0 is free for the sentinel.
	ws.t = Grow(ws.t, n+1)
	t := ws.t
	for i, b := range text {
		t[i] = int32(b) + 1
	}
	t[n] = 0
	ws.sa = Grow(ws.sa, n+1)
	saIS(t, ws.sa, 257, ws, 0)
	// sa[0] is the sentinel suffix; drop it.
	return ws.sa[1:]
}

// SuffixArrayInts is SuffixArray over an integer text with symbols in
// [0, sigma). The end of the text is treated as a sentinel smaller than
// any symbol.
func SuffixArrayInts(text []int32, sigma int) []int32 {
	n := len(text)
	if n == 0 {
		return nil
	}
	t := make([]int32, n+1)
	for i, v := range text {
		if v < 0 || int(v) >= sigma {
			panic("sa: symbol out of alphabet range")
		}
		t[i] = v + 1
	}
	t[n] = 0
	sa := make([]int32, n+1)
	saIS(t, sa, sigma+1, &Workspace{}, 0)
	out := make([]int32, n)
	copy(out, sa[1:])
	return out
}

// saIS computes the suffix array of t into sa. t must end with a unique
// smallest sentinel (value 0 occurring exactly once, at the end), and
// symbols lie in [0, sigma). Scratch comes from ws's buffers for this
// recursion depth.
func saIS(t []int32, sa []int32, sigma int, ws *Workspace, depth int) {
	n := len(t)
	if n == 1 {
		sa[0] = 0
		return
	}
	lv := &ws.levels[depth]
	// Classify suffixes: S-type (true) or L-type (false).
	lv.isS = Grow(lv.isS, n)
	isS := lv.isS
	isS[n-1] = true
	for i := n - 2; i >= 0; i-- {
		isS[i] = t[i] < t[i+1] || (t[i] == t[i+1] && isS[i+1])
	}
	isLMS := func(i int) bool { return i > 0 && isS[i] && !isS[i-1] }

	// Count symbol frequencies once; bucket heads/tails are O(sigma)
	// prefix sums over the counts, so re-deriving them for every induce
	// pass no longer costs an O(n) recount each time.
	lv.cnt = Grow(lv.cnt, sigma)
	cnt := lv.cnt
	clear(cnt)
	for _, c := range t {
		cnt[c]++
	}
	lv.bkt = Grow(lv.bkt, sigma)
	bkt := lv.bkt
	bucketHeads := func() {
		var s int32
		for c := 0; c < sigma; c++ {
			bkt[c] = s
			s += cnt[c]
		}
	}
	bucketTails := func() {
		var s int32
		for c := 0; c < sigma; c++ {
			s += cnt[c]
			bkt[c] = s
		}
	}

	induce := func() {
		// Induce L-type suffixes left to right.
		bucketHeads()
		for i := 0; i < n; i++ {
			j := sa[i] - 1
			if sa[i] > 0 && !isS[j] {
				sa[bkt[t[j]]] = j
				bkt[t[j]]++
			}
		}
		// Induce S-type suffixes right to left.
		bucketTails()
		for i := n - 1; i >= 0; i-- {
			j := sa[i] - 1
			if sa[i] > 0 && isS[j] {
				bkt[t[j]]--
				sa[bkt[t[j]]] = j
			}
		}
	}

	// Step 1: place LMS suffixes at bucket tails in text order, induce.
	for i := range sa {
		sa[i] = -1
	}
	bucketTails()
	for i := 1; i < n; i++ {
		if isLMS(i) {
			bkt[t[i]]--
			sa[bkt[t[i]]] = int32(i)
		}
	}
	induce()

	// Step 2: compact the sorted LMS substrings and name them.
	nLMS := 0
	for i := 0; i < n; i++ {
		if isLMS(int(sa[i])) {
			sa[nLMS] = sa[i]
			nLMS++
		}
	}
	// Name buffer in the upper half of sa.
	names := sa[nLMS:]
	for i := range names {
		names[i] = -1
	}
	lmsEqual := func(a, b int) bool {
		// Compare LMS substrings starting at a and b.
		if t[a] != t[b] {
			return false
		}
		for i := 1; ; i++ {
			aEnd, bEnd := isLMS(a+i), isLMS(b+i)
			if aEnd && bEnd {
				return true
			}
			if aEnd != bEnd || t[a+i] != t[b+i] {
				return false
			}
		}
	}
	var name int32 = -1
	prev := -1
	for i := 0; i < nLMS; i++ {
		pos := int(sa[i])
		if prev < 0 || !lmsEqual(prev, pos) {
			name++
		}
		prev = pos
		names[pos/2] = name
	}
	// Collect names in text order.
	lv.lmsPos = Grow(lv.lmsPos, nLMS)
	lv.reduced = Grow(lv.reduced, nLMS)
	lmsPos, reduced := lv.lmsPos[:0], lv.reduced[:0]
	for i := 1; i < n; i++ {
		if isLMS(i) {
			lmsPos = append(lmsPos, int32(i))
			reduced = append(reduced, names[i/2])
		}
	}

	// Step 3: sort the reduced problem.
	lv.sortedLMS = Grow(lv.sortedLMS, nLMS)
	sortedLMS := lv.sortedLMS
	if int(name)+1 == nLMS {
		// All names unique: order directly.
		for i, nm := range reduced {
			sortedLMS[nm] = int32(i)
		}
	} else {
		lv.sub = Grow(lv.sub, nLMS)
		saIS(reduced, lv.sub, int(name)+1, ws, depth+1)
		copy(sortedLMS, lv.sub)
	}

	// Step 4: place LMS suffixes in their final relative order, induce.
	for i := range sa {
		sa[i] = -1
	}
	bucketTails()
	for i := nLMS - 1; i >= 0; i-- {
		j := lmsPos[sortedLMS[i]]
		bkt[t[j]]--
		sa[bkt[t[j]]] = j
	}
	induce()
}
