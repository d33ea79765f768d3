package fmindex

import (
	"encoding/binary"
	"math/bits"

	"dyncoll/internal/bitvec"
	"dyncoll/internal/sa"
)

// Rebuilds that do not re-sort.
//
// An fmm index (layout FMM) orders its rows in multi-string order: a
// suffix compares through its own document's separator, and suffixes
// whose tails agree through their separators order by document index
// (sa.MultiSuffixArrayWS). Every document starts at a multiple of s
// in a padded layout, so which positions are sampled, and the value of
// each SA sample less its document's start, depend on the document
// alone. The LF target of a document's first row is its own
// separator's row, which is the document's index: the separators sort
// first, by document.
//
// Two consequences make the index over a list of documents a function
// of the list, however it was produced:
//
//   - Deleting documents leaves the order of the other rows as it was:
//     a purge is a filter over the rows, and a sample moves down by the
//     padded lengths of the deleted documents before it.
//   - Concatenating two lists interleaves their rows without reordering
//     either's. Where a row of one goes among the rows of the other
//     comes from backward search: walking a document backward from its
//     separator, each suffix's count of smaller suffixes of the other
//     index is one rank away from the last (Sirén, "Compressed suffix
//     arrays for massive data", SPIRE 2009). A sample of the second
//     list moves up by the padded length of the first.
//
// rebuild merges and purges at once: it walks every part but the
// largest through its own LF and ranks in the largest, then writes all
// rows in one sequential pass and builds the tree and the shortcuts
// over them, as a build does after sorting (rowData.finish).

// rowData is an fmm index row by row, before its tree and shortcuts
// exist: what a build, a merge or a purge writes, and what a merge
// reads from the side it walks.
type rowData struct {
	s       int
	bwt     []byte
	freq    [256]int64
	marks   []uint64
	samples []int32 // in row order, each a sampled position of the padded layout over s
	sepRows []int32
	// sepTargets[i] is the document whose first row is sepRows[i], the
	// LF target of that row.
	sepTargets []int32
	ids        []uint64
	lens       []int32 // payload lengths
}

// newRowData returns an empty rowData of n rows over the documents
// with the given IDs and payload lengths, writing its BWT into bwt's
// storage.
func newRowData(s, n int, bwt []byte, ids []uint64, lens []int32) *rowData {
	return &rowData{
		s:       s,
		bwt:     sa.Grow(bwt, n)[:0],
		marks:   make([]uint64, (n+63)/64),
		samples: make([]int32, 0, n/s+len(ids)),
		ids:     ids,
		lens:    lens,
	}
}

// appendRow writes the next row: its BWT symbol b, its SA sample or -1
// when it is not sampled, and, when b is the separator, the document
// whose first row it is.
func (rd *rowData) appendRow(b byte, sample, doc int32) {
	r := len(rd.bwt)
	rd.bwt = append(rd.bwt, b)
	rd.freq[b]++
	if sample >= 0 {
		rd.marks[r>>6] |= 1 << (r & 63)
		rd.samples = append(rd.samples, sample)
	}
	if b == Sep {
		rd.sepRows = append(rd.sepRows, int32(r))
		rd.sepTargets = append(rd.sepTargets, doc)
	}
}

// finish builds the index over the rows: the tree, the marks, the SA
// samples and the shortcuts through them. Build, rebuild and nothing
// else make fmm indexes, both through here.
func (rd *rowData) finish() *Index {
	n := len(rd.bwt)
	x := &Index{n: n, s: rd.s, saScale: rd.s, layout: FMM, sepRows: rd.sepRows, sepTargets: rd.sepTargets}
	x.docTable = padded(rd.ids, rd.lens, rd.s)
	sum := 0
	for b, f := range rd.freq {
		x.c[b] = sum
		sum += int(f)
	}
	x.c[256] = sum
	x.buildSymTable()
	x.marked = bitvec.FromWords(rd.marks, n).WithoutSelect0()
	m := x.span() / rd.s
	x.saSamp = newPacked(m, m)
	for i, v := range rd.samples {
		x.saSamp.set(i, uint64(v))
	}
	x.isa, _ = newShortcuts(x.saSamp, x.marked)
	freq := rd.freq
	x.bwt = newSequence(rd.bwt, freq[:], FMM)
	return x
}

// buildFMM is Build for the FMM layout: the rows sorted in multi-string
// order, and the samples taken in the padded layout.
func buildFMM(docs []Doc, s int) *Index {
	var t docTable
	total := 0
	for _, d := range docs {
		total += len(d.Data) + 1
	}
	sc := scratchPool.Get().(*buildScratch)
	defer scratchPool.Put(sc)
	text := t.appendDocs(sa.Grow(sc.text, total)[:0], docs)
	sc.text = text
	n := len(text)
	lens := make([]int32, len(docs))
	for i, d := range docs {
		lens[i] = int32(len(d.Data))
	}
	rd := newRowData(s, n, sc.bwt, t.docIDs, lens)
	if n > 0 {
		suff := sa.MultiSuffixArrayWS(text, &sc.saws)
		// Mark the positions at offsets 0, s, 2s, … of their documents.
		// In text order the k-th of them is at k·s in the padded layout,
		// so a sampled row's sample is its position's rank among them.
		words := make([]uint64, n/64+1)
		for d, st := range t.docStarts {
			for p := int(st); p <= int(st)+int(lens[d]); p += s {
				words[p>>6] |= 1 << (p & 63)
			}
		}
		sampled := bitvec.FromWords(words, n)
		rd.bwt = rd.bwt[:n]
		for row, p := range suff {
			before := int(p) - 1
			if before < 0 {
				before = n - 1
			}
			b := text[before]
			rd.bwt[row] = b
			rd.freq[b]++
			if words[p>>6]>>(p&63)&1 != 0 {
				rd.marks[row>>6] |= 1 << (row & 63)
				rd.samples = append(rd.samples, int32(sampled.Rank1(int(p))))
			}
			if b == Sep {
				d, _ := t.posToDoc(int(p))
				rd.sepRows = append(rd.sepRows, int32(row))
				rd.sepTargets = append(rd.sepTargets, int32(d))
			}
		}
	}
	x := rd.finish()
	sc.bwt = rd.bwt
	return x
}

// part is one input of rebuild: an fmm index, and the documents of it
// that the result keeps, ascending.
type part struct {
	X    *Index
	Keep []int
}

// weight is the number of rows the part keeps.
func (p part) weight() int {
	w := 0
	for _, d := range p.Keep {
		w += p.X.DocLen(d) + 1
	}
	return w
}

// rebuild returns the fmm index over the documents parts[0].Keep of
// parts[0].X, then parts[1].Keep of parts[1].X, and so on: byte for
// byte the index Build makes of those documents in that order, made
// without sorting anything. It reports false, and builds nothing,
// unless every part is an fmm index of one sample rate.
func rebuild(parts []part) (*Index, bool) {
	if len(parts) == 0 {
		return nil, false
	}
	for _, p := range parts {
		if p.X.layout != FMM || p.X.s != parts[0].X.s {
			return nil, false
		}
	}
	sc := scratchPool.Get().(*buildScratch)
	defer scratchPool.Put(sc)
	rd := mergeParts(parts, sc)
	x := rd.finish()
	sc.text = rd.bwt
	return x, true
}

// MergeDocs is rebuild for a caller that holds indexes as interface
// values: each of parts is an *Index, of which it keeps the documents
// keep[i], or a []Doc, which it builds at x's sample rate first. It
// returns the *Index, or false, having built nothing, when x or an
// *Index part is no fmm index of x's rate, or a part is neither.
func (x *Index) MergeDocs(parts []any, keep [][]int) (any, bool) {
	if x.layout != FMM {
		return nil, false
	}
	ps := make([]part, len(parts))
	for i, p := range parts {
		switch p := p.(type) {
		case *Index:
			if p.layout != FMM || p.s != x.s {
				return nil, false
			}
			ps[i] = part{X: p, Keep: keep[i]}
		case []Doc:
		default:
			return nil, false
		}
	}
	for i, p := range parts {
		if docs, ok := p.([]Doc); ok {
			ps[i] = part{X: buildFMM(docs, x.s), Keep: make([]int, len(docs))}
			for d := range docs {
				ps[i].Keep[d] = d
			}
		}
	}
	out, ok := rebuild(ps)
	return out, ok
}

// mergeParts lays out the rows of the parts' kept documents, in order:
// the largest part is the base the others are ranked in, and those
// others, merged first when there are several, are walked.
func mergeParts(parts []part, sc *buildScratch) *rowData {
	base, most := 0, -1
	for i, p := range parts {
		if w := p.weight(); w > most {
			base, most = i, w
		}
	}
	var m merger
	m.base = parts[base]
	for _, p := range parts[:base] {
		m.split += len(p.Keep)
	}
	rest := append(parts[:base:base], parts[base+1:]...)
	switch len(rest) {
	case 0:
	case 1:
		m.walked, m.walkedKeep = fromIndex(rest[0].X, sc), rest[0].Keep
	default:
		inner := scratchPool.Get().(*buildScratch)
		m.walked = mergeParts(rest, inner)
		out := m.run(sc)
		inner.text = m.walked.bwt
		scratchPool.Put(inner)
		return out
	}
	return m.run(sc)
}

// fromIndex lays an fmm index out as rowData: its BWT decoded into
// sc.mergeW, its samples widened, the rest shared.
func fromIndex(x *Index, sc *buildScratch) *rowData {
	sc.mergeW = sa.Grow(sc.mergeW, x.n)
	rd := &rowData{s: x.s, bwt: sc.mergeW, marks: x.marked.Words(), sepRows: x.sepRows, sepTargets: x.sepTargets, ids: x.docIDs}
	x.decodeBWT(rd.bwt, sc)
	for b := range rd.freq {
		rd.freq[b] = int64(x.c[b+1] - x.c[b])
	}
	rd.samples = make([]int32, x.saSamp.n)
	for i := range rd.samples {
		rd.samples[i] = int32(x.saSamp.get(i))
	}
	rd.lens = make([]int32, x.DocCount())
	for d := range rd.lens {
		rd.lens[d] = int32(x.DocLen(d))
	}
	return rd
}

// decodeBWT reads the whole BWT into dst, with sc.decode as the tree's
// scratch.
func (x *Index) decodeBWT(dst []byte, sc *buildScratch) {
	sc.decode = x.bwt.ReadAll(dst, sc.decode)
}

// merger interleaves the rows of walked's documents walkedKeep (all
// of them when nil) with those of base's kept documents: walked's
// first split kept documents go before base's, the rest after.
type merger struct {
	base       part
	walked     *rowData
	walkedKeep []int
	split      int
}

// run lays out the merged rows.
func (m *merger) run(sc *buildScratch) *rowData {
	b := m.base.X
	bBytes := sa.Grow(sc.mergeB, b.n)
	sc.mergeB = bBytes
	b.decodeBWT(bBytes, sc)

	// The output's documents and their padded starts: walked's first
	// split, base's, walked's rest.
	w := m.walked
	if w == nil {
		w = &rowData{s: b.s}
	}
	wKeep := m.walkedKeep
	if wKeep == nil {
		wKeep = make([]int, len(w.ids))
		for i := range wKeep {
			wKeep[i] = i
		}
	}
	nDocs := len(wKeep) + len(m.base.Keep)
	ids, lens := make([]uint64, 0, nDocs), make([]int32, 0, nDocs)
	newDocW, newDocB := fill32(len(w.ids), -1), fill32(b.DocCount(), -1)
	add := func(newDoc []int32, d int, id uint64, l int32) {
		newDoc[d] = int32(len(ids))
		ids, lens = append(ids, id), append(lens, l)
	}
	for _, d := range wKeep[:m.split] {
		add(newDocW, d, w.ids[d], w.lens[d])
	}
	for _, d := range m.base.Keep {
		add(newDocB, d, b.docIDs[d], int32(b.DocLen(d)))
	}
	for _, d := range wKeep[m.split:] {
		add(newDocW, d, w.ids[d], w.lens[d])
	}
	rows := 0
	for _, l := range lens {
		rows += int(l) + 1
	}
	starts := paddedStarts(lens, b.s)
	remapW := remapSamples(w.lens, newDocW, starts, b.s)
	bLens := make([]int32, b.DocCount())
	for d := range bLens {
		bLens[d] = int32(b.DocLen(d))
	}
	remapB := remapSamples(bLens, newDocB, starts, b.s)

	out := newRowData(b.s, rows, sc.text, ids, lens)
	// The base's symbols are counted from its C array, less the dropped
	// rows'; the walked side's as its rows are written.
	for c := range out.freq {
		out.freq[c] = int64(b.c[c+1] - b.c[c])
	}
	dead := m.deadBaseRows(newDocB, bBytes, bLens, &out.freq, sc)
	pos := m.walk(wKeep, bBytes, sc)
	base := baseRows{x: b, bwt: bBytes, marks: b.marked.Words(), dead: dead, remap: remapB, newDoc: newDocB}
	kw, sw := 0, 0
	for r, p := range pos {
		c, sample, doc := w.bwt[r], int32(-1), int32(0)
		if w.marks[r>>6]>>(r&63)&1 != 0 {
			sample = remapW[w.samples[kw]]
			kw++
		}
		if c == Sep {
			doc = newDocW[w.sepTargets[sw]]
			sw++
		}
		if p < 0 {
			continue // a row of a document not kept
		}
		base.copyTo(out, int(p))
		out.appendRow(c, sample, doc)
	}
	base.copyTo(out, b.n)
	return out
}

// baseRows copies the base's rows to a merge's output, run by run.
type baseRows struct {
	x      *Index
	bwt    []byte
	marks  []uint64
	dead   []uint64 // the rows dropped; nil for none
	remap  []int32  // sample values to the output's
	newDoc []int32  // document indexes to the output's
	row    int      // the next row to copy
	sample int      // the rank of its sample
	sep    int      // the rank of its separator
}

// copyTo appends the rows from the next up to upTo that the merge
// keeps: each run of them with one copy of its symbols, and its marks
// and separators found by scanning the marks' words and the separator
// rows, where the rows a run skips only advance the ranks.
func (br *baseRows) copyTo(out *rowData, upTo int) {
	for br.row < upTo {
		lo, hi := br.row, upTo
		if br.dead != nil {
			lo = scanBits(br.dead, br.row, upTo, false)
			hi = scanBits(br.dead, lo, upTo, true)
			br.skip(lo)
		}
		start := len(out.bwt) - lo
		out.bwt = append(out.bwt, br.bwt[lo:hi]...)
		for w := lo >> 6; w<<6 < hi; w++ {
			for word := br.marks[w] & rangeMask(w, lo, hi); word != 0; word &= word - 1 {
				o := start + (w<<6 | bits.TrailingZeros64(word))
				out.marks[o>>6] |= 1 << (o & 63)
				out.samples = append(out.samples, br.remap[br.x.saSamp.get(br.sample)])
				br.sample++
			}
		}
		for rows := br.x.sepRows; br.sep < len(rows) && int(rows[br.sep]) < hi; br.sep++ {
			out.sepRows = append(out.sepRows, int32(start)+rows[br.sep])
			out.sepTargets = append(out.sepTargets, br.newDoc[br.x.sepTargets[br.sep]])
		}
		br.row = hi
	}
}

// skip advances the ranks over the rows from the next up to upTo,
// which the merge drops.
func (br *baseRows) skip(upTo int) {
	for w := br.row >> 6; w<<6 < upTo; w++ {
		br.sample += bits.OnesCount64(br.marks[w] & rangeMask(w, br.row, upTo))
	}
	for rows := br.x.sepRows; br.sep < len(rows) && int(rows[br.sep]) < upTo; br.sep++ {
	}
	br.row = upTo
}

// scanBits is the first position in [from, to) whose bit is set, or
// clear when set is false; to when there is none.
func scanBits(words []uint64, from, to int, set bool) int {
	flip := uint64(0)
	if !set {
		flip = ^flip
	}
	for w := from >> 6; w<<6 < to; w++ {
		word := (words[w] ^ flip) &^ (1<<(max(from-w<<6, 0)) - 1)
		if word != 0 {
			return min(w<<6|bits.TrailingZeros64(word), to)
		}
	}
	return to
}

// rangeMask is the mask of word w's bits at positions in [from, to).
func rangeMask(w, from, to int) uint64 {
	mask := ^uint64(0)
	if lo := from - w<<6; lo > 0 {
		mask <<= lo
	}
	if hi := to - w<<6; hi < 64 {
		mask &= 1<<hi - 1
	}
	return mask
}

// walk walks each kept document of the walked side backward from its
// separator through the side's own LF, and returns, for every row of
// the side, the number of base rows smaller than it, or -1 for a row
// of a document not kept. A separator sorts after every base separator
// when its document goes after the base's and before all of them
// otherwise; each step back prepends a symbol c, and the count becomes
// C[c] plus the rank of c at the old count, as a backward search
// step. The ranks come from a block table of the base's symbol counts
// (rankTable): two loads that do not depend on each other, where the
// tree's rank walks its levels one after another. walkLanes documents
// advance together, so that the base's cache misses overlap.
func (m *merger) walk(wKeep []int, bBytes []byte, sc *buildScratch) []int32 {
	w, b := m.walked, m.base.X
	if w == nil {
		return nil
	}
	n := len(w.bwt)
	pos := fill32Into(sc.mergePos, n, -1)
	sc.mergePos = pos
	lf := lfOf(w, sa.Grow(sc.mergeLF, n))
	sc.mergeLF = lf
	table := newRankTable(bBytes, &b.c, sc)
	var row, p, left [walkLanes]int
	var sym [walkLanes]byte
	active, next := 0, 0
	for {
		for active < walkLanes && next < len(wKeep) {
			d := wKeep[next]
			row[active], p[active], left[active] = d, 0, int(w.lens[d])
			if next >= m.split {
				p[active] = b.DocCount()
			}
			pos[d] = int32(p[active])
			next++
			if left[active] > 0 {
				active++
			}
		}
		if active == 0 {
			return pos
		}
		for k := range active {
			sym[k] = w.bwt[row[k]]
		}
		for k := range active {
			p[k] = table.rank(sym[k], p[k])
		}
		for k := 0; k < active; {
			p[k] += b.c[sym[k]]
			row[k] = int(lf[row[k]])
			pos[row[k]] = int32(p[k])
			if left[k]--; left[k] > 0 {
				k++
				continue
			}
			active--
			row[k], p[k], left[k], sym[k] = row[active], p[active], left[active], sym[active]
		}
	}
}

// rankTable counts a BWT's symbols at every block boundary, so that a
// rank is a table entry plus a count over at most a block of bytes: two
// loads that do not depend on each other. A block holds 64 rows per 64
// symbols the BWT uses, so the table takes about 4 bytes per row.
type rankTable struct {
	bwt   []byte
	shift uint
	code  [256]int32 // a symbol's column, or -1 when it does not occur
	width int        // symbols that occur
	table []int32    // table[b·width + code[c]]: the c before block b
}

// newRankTable counts bwt, whose symbol counts c gives, into sc.occ's
// storage.
func newRankTable(bwt []byte, c *[257]int, sc *buildScratch) *rankTable {
	o := &rankTable{bwt: bwt, shift: 6}
	var present []byte
	for s := range 256 {
		o.code[s] = -1
		if c[s+1] > c[s] {
			o.code[s] = int32(len(present))
			present = append(present, byte(s))
		}
	}
	o.width = len(present)
	for 1<<o.shift < 64*((o.width+63)/64) {
		o.shift++
	}
	blocks := len(bwt)>>o.shift + 1
	o.table = sa.Grow(sc.occ, blocks*o.width)
	sc.occ = o.table
	var count [256]int32
	for b := range blocks {
		row := o.table[b*o.width : (b+1)*o.width]
		for i, s := range present {
			row[i] = count[s]
		}
		for _, s := range bwt[b<<o.shift : min((b+1)<<o.shift, len(bwt))] {
			count[s]++
		}
	}
	return o
}

// rank is the number of c in the first p rows.
func (o *rankTable) rank(c byte, p int) int {
	col := o.code[c]
	if col < 0 {
		return 0
	}
	b := p >> o.shift
	return int(o.table[b*o.width+int(col)]) + countByte(o.bwt[b<<o.shift:p], c)
}

// countByte counts the bytes of s equal to c, eight at a time: a byte
// of s^c·0x01… is zero exactly where its high bit survives the mask.
func countByte(s []byte, c byte) int {
	const lows, highs = 0x7f7f7f7f7f7f7f7f, 0x8080808080808080
	pat, n := uint64(c)*0x0101010101010101, 0
	for ; len(s) >= 8; s = s[8:] {
		x := binary.LittleEndian.Uint64(s) ^ pat
		n += bits.OnesCount64(^((x&lows + lows) | x | lows) & highs)
	}
	for _, b := range s {
		if b == c {
			n++
		}
	}
	return n
}

// deadBaseRows marks the rows of the base's documents that the merge
// drops, and takes their symbols off freq; nil when it keeps them all.
// It walks each from its separator through an LF array of the base,
// walkLanes documents at a time.
func (m *merger) deadBaseRows(newDocB []int32, bBytes []byte, bLens []int32, freq *[256]int64, sc *buildScratch) []uint64 {
	b := m.base.X
	if len(m.base.Keep) == b.DocCount() {
		return nil
	}
	dead := make([]uint64, (b.n+63)/64)
	mark := func(row int) {
		dead[row>>6] |= 1 << (row & 63)
		freq[bBytes[row]]--
	}
	var docs []int
	for d, nd := range newDocB {
		if nd < 0 {
			docs = append(docs, d)
		}
	}
	rd := &rowData{bwt: bBytes, sepRows: b.sepRows, sepTargets: b.sepTargets}
	for c := range rd.freq {
		rd.freq[c] = int64(b.c[c+1] - b.c[c])
	}
	lf := lfOf(rd, sa.Grow(sc.mergeLF, b.n))
	sc.mergeLF = lf
	var row, left [walkLanes]int
	active, next := 0, 0
	for {
		for active < walkLanes && next < len(docs) {
			d := docs[next]
			row[active], left[active] = d, int(bLens[d])
			mark(d)
			next++
			if left[active] > 0 {
				active++
			}
		}
		if active == 0 {
			return dead
		}
		for k := 0; k < active; {
			row[k] = int(lf[row[k]])
			mark(row[k])
			if left[k]--; left[k] > 0 {
				k++
				continue
			}
			active--
			row[k], left[k] = row[active], left[active]
		}
	}
}

// lfOf writes the LF mapping of every row of rd into lf: a counting
// pass over the BWT, with the separator rows taken from the tables.
func lfOf(rd *rowData, lf []int32) []int32 {
	var next [256]int32
	sum := int32(0)
	for c, f := range rd.freq {
		next[c] = sum
		sum += int32(f)
	}
	for row, c := range rd.bwt {
		lf[row] = next[c]
		next[c]++
	}
	for i, r := range rd.sepRows {
		lf[r] = rd.sepTargets[i]
	}
	return lf
}

// paddedStarts returns the start of every document in the padded
// layout of stride s, over s, and the layout's length over s last.
func paddedStarts(lens []int32, s int) []int32 {
	starts := make([]int32, len(lens)+1)
	v := 0
	for i, l := range lens {
		starts[i] = int32(v / s)
		v = roundUp(v+int(l)+1, s)
	}
	starts[len(lens)] = int32(v / s)
	return starts
}

// remapSamples returns, for every SA sample value of a side whose
// documents have the given payload lengths, the value it takes in the
// output, whose documents start at starts: a sample keeps its offset
// in its document. Samples of documents not kept map to -1.
func remapSamples(lens, newDoc, starts []int32, s int) []int32 {
	old := paddedStarts(lens, s)
	remap := make([]int32, old[len(lens)])
	for d, nd := range newDoc {
		for v := old[d]; v < old[d+1]; v++ {
			remap[v] = -1
			if nd >= 0 {
				remap[v] = v - old[d] + starts[nd]
			}
		}
	}
	return remap
}

// fill32 returns n copies of v.
func fill32(n int, v int32) []int32 { return fill32Into(nil, n, v) }

// fill32Into is fill32 in buf's storage.
func fill32Into(buf []int32, n int, v int32) []int32 {
	buf = sa.Grow(buf, n)
	for i := range buf {
		buf[i] = v
	}
	return buf
}
