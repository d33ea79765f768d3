package fmindex

// symTable maps a suffix-array row to the first symbol of its suffix —
// the inverse of the C array — without the per-call closure and binary
// search the hot loops used to pay. Extract and the CSA's pattern
// comparison resolve a symbol per step, so this sits directly on the
// per-symbol path.
//
// A sampled table indexed by row>>shift names the symbol covering the
// sample row; the monotone C boundaries are then scanned forward, which
// is O(symbols spanned by one sample block) — near-always zero or one
// step. The table is a deterministic function of the C array, so it is
// rebuilt on load and never serialized (the snapshot wire format is
// unchanged).
type symTable struct {
	shift uint
	tab   []uint8
	bound [257]int32 // bound[b] = first row of symbol b; bound[256] = n
}

// build derives the table from the C boundaries over n rows.
func (st *symTable) build(bound [257]int32, n int) {
	st.bound = bound
	// Terminate every forward scan at symbol 255 even if a (crafted)
	// boundary table ends short of n.
	if st.bound[256] < int32(n) {
		st.bound[256] = int32(n)
	}
	st.shift = 0
	if n <= 0 {
		st.tab = st.tab[:0]
		return
	}
	for n>>st.shift > 4096 {
		st.shift++
	}
	entries := (n-1)>>st.shift + 1
	if cap(st.tab) < entries {
		st.tab = make([]uint8, entries)
	}
	st.tab = st.tab[:entries]
	b := 0
	for q := 0; q < entries; q++ {
		row := int32(q) << st.shift
		for st.bound[b+1] <= row {
			b++
		}
		st.tab[q] = uint8(b)
	}
}

// at returns the symbol whose C-range covers row.
func (st *symTable) at(row int) byte {
	b := int(st.tab[row>>st.shift])
	for st.bound[b+1] <= int32(row) {
		b++
	}
	return byte(b)
}

// sizeBits is the table's footprint: the sampled symbols, the
// boundaries and the shift.
func (st *symTable) sizeBits() int64 {
	return int64(len(st.tab))*8 + int64(len(st.bound))*32 + 64
}
