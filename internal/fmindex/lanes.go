package fmindex

import "dyncoll/internal/wavelet"

// LF lanes. Every query-time LF walk — Extract, SuffixRank, a document's
// rows for deletion, Locate — is cut into walks that do not depend on
// each other, and walkLanes of them advance together one LF step at a
// time through the tree's AccessRanks, which in turn advances them
// together one tree level at a time. A single walk is a chain of
// dependent cache misses, a rank-directory probe per level per step;
// lanes keep that many chains' misses in flight at once.

// walkPlan cuts the LF walk over the text positions [lo, hi) into
// segments. The walk reaches every position q of the range by one LF
// step from q+1, which yields q's row and, as the BWT symbol read on the
// way, the text symbol at q. Rows are known without walking only at the
// ISA-sampled positions — the multiples of s, and n-1 — so the walk is
// cut there: a segment starts at the row of a sampled position and ends
// at a sampled position below it (or at lo), and no segment depends on
// another.
//
// The sampled positions cut the range into intervals of s positions,
// but for the bottom one, which lo may cut short, and the top one when
// it starts at n-1. A plan groups them into at most walkLanes segments
// of consecutive intervals, as evenly as it can: with more intervals
// than lanes, a short top interval rides along with the top segment
// uncounted, and the longer segments are the bottom ones, where the
// short bottom interval is. So the lanes start at once and finish as
// soon as walkLanes segments of one interval each, taken in turn,
// would, while no more rows are looked up than there are lanes: each
// costs several dependent loads (sampleRows).
//
// The top segment starts where SuffixRank(hi-1) would: at the first
// sampled position at or after hi-1. When that is hi-1 itself, its row
// is a sample and no step is needed to reach it (planWalk reports it as
// direct); otherwise the first steps of the top segment pass positions
// at or above hi that nobody asked for, exactly the steps SuffixRank
// pays. So a plan takes the same number of steps as the scalar chain —
// SuffixRank's walk to hi-1, then one step per position below it.
//
// A plan depends on (lo, hi, s, n) alone: the document boundaries do not
// matter, because a step across a separator is an ordinary LF step.
type walkPlan struct {
	lo, s int
	from  int // start of the next segment; lo when none is left
	size  int // intervals per segment
	left  int // segments left
	extra int // how many of the last segments take one interval more
	short int // 1 while the top segment, which starts with a short interval, is next
}

// planWalk returns the plan of the walk over [lo, hi), lo < hi ≤ n, and
// whether hi-1 is itself sampled (direct).
func planWalk(lo, hi, s, n int) (p walkPlan, direct bool) {
	top := sampleAfter(hi-1, s, n)
	// From top down to the first multiple of s below it, then from one
	// multiple to the next, down to lo; none when top is lo.
	intervals, short := 1+(top-1)/s-lo/s, 0
	if top%s != 0 && intervals > walkLanes {
		intervals, short = intervals-1, 1
	}
	lanes := max(min(intervals, walkLanes), 1)
	p = walkPlan{lo: lo, s: s, from: top, size: intervals / lanes, left: lanes, extra: intervals % lanes, short: short}
	return p, top == hi-1
}

// next returns the next segment, top down: start at the row of the
// sampled position from and take steps LF steps, which visit the
// positions from-1 down to from-steps.
func (p *walkPlan) next() (from, steps int, ok bool) {
	if p.from <= p.lo {
		return 0, 0, false
	}
	from = p.from
	k := p.size + p.short
	if p.left <= p.extra {
		k++
	}
	p.left, p.short = p.left-1, 0
	p.from = max(p.lo, ((from-1)/p.s-(k-1))*p.s)
	return from, from - p.from, true
}

// sampleAfter is the first ISA-sampled position at or after pos < n.
func sampleAfter(pos, s, n int) int {
	if j := (pos + s - 1) / s * s; j < n {
		return j
	}
	return n - 1
}

// sampleRows sets rows[i] to the row of the sampled position js[i], for
// at most walkLanes positions: endRow for the one position that is no
// multiple of s (docSpan), and for j = k·s the row
// of mark π⁻¹(k) (shortcuts.go). The lookups advance together, a read
// of π each per round, so that their cache misses overlap, and every
// lookup takes shortcutStep rounds: from k it follows π, jumping back
// along the first back pointer it meets; π⁻¹(k) is the element it
// reads k at, which in a cycle longer than shortcutStep happens in the
// last round. A mapped file of an older name reads the rows from its
// ISA array instead, held below n whatever the file says; a corrupt
// mapped payload can lead a lookup astray, but only to an element
// below M.
func (x *Index) sampleRows(js, rows []int, endRow int) {
	if x.isaSamp.n != 0 {
		for i, j := range js {
			rows[i] = endRow
			if j%x.s == 0 {
				rows[i] = min(x.isaSamp.get(j/x.s), x.n-1)
			}
		}
		return
	}
	var k, e, pre, sel [walkLanes]int
	jumped := uint(0)
	for i, j := range js {
		k[i] = j / x.s
		e[i] = k[i]
	}
	last, has := x.saSamp.n-1, x.isa.has.Words()
	for range shortcutStep {
		for i := range js {
			c := e[i]
			if jumped&(1<<i) == 0 && has[c>>6]&(1<<(c&63)) != 0 {
				c, jumped = x.isa.back.get(x.isa.has.Rank1(c)), jumped|1<<i
				if c > last {
					c = 0
				}
			}
			next := x.saSamp.get(c)
			if next == k[i] {
				pre[i] = c
			}
			if next > last {
				next = 0
			}
			e[i] = next
		}
	}
	// Read every lane's select sample before any lane counts marks, so
	// that those misses overlap too.
	for i := range js {
		sel[i] = x.isa.sel.get(pre[i] / markSample)
	}
	for i, j := range js {
		rows[i] = endRow
		if k[i]*x.s == j {
			rows[i] = x.markRowFrom(pre[i], sel[i])
		}
	}
}

// sampleRow is the row of the sampled position j.
func (x *Index) sampleRow(j, endRow int) int {
	var row [1]int
	x.sampleRows([]int{j}, row[:], endRow)
	return row[0]
}

// lfSteps takes one LF step in every lane: rows[k] becomes LF(rows[k])
// and sym[k] the BWT symbol at the old row, which is the text symbol at
// the new row's position. A separator row's target is sepTargets at the
// separator's rank: sepRows lists those rows in order, so the rank
// AccessRanks returns is the row's index there.
func (x *Index) lfSteps(rows []int, sym []uint32) {
	// The call goes to the concrete tree: through the sequence
	// interface the compiler cannot see that AccessRanks keeps neither
	// slice, and every walk's lane arrays would move to the heap.
	switch t := x.bwt.(type) {
	case *wavelet.Quad:
		t.AccessRanks(rows, sym)
	case *wavelet.Tree:
		t.AccessRanks(rows, sym)
	}
	for k, b := range sym[:len(rows)] {
		if byte(b) == Sep {
			rows[k] = int(x.sepTargets[rows[k]])
		} else {
			rows[k] += x.c[b]
		}
	}
}

// walkRange runs the plan of [lo, hi) in lanes and calls visit(q, row,
// b) once for every position q of the range, with q's row and the text
// symbol at q, in no particular order. end and endRow are the span's
// of the document the range lies in (docSpan).
func (x *Index) walkRange(lo, hi, end, endRow int, visit func(q, row int, b byte)) {
	p, direct := planWalk(lo, hi, x.s, end)
	if direct {
		row := x.sampleRow(hi-1, endRow)
		visit(hi-1, row, x.sym.at(row))
	}
	var rows, at, stop [walkLanes]int // a lane's row, its text position, where its segment ends
	var sym [walkLanes]uint32
	active := 0
	for {
		first := active
		for active < walkLanes {
			from, steps, ok := p.next()
			if !ok {
				break
			}
			at[active], stop[active] = from, from-steps
			active++
		}
		if active == 0 {
			return
		}
		x.sampleRows(at[first:active], rows[first:active], endRow)
		x.lfSteps(rows[:active], sym[:active])
		for k := 0; k < active; {
			at[k]--
			if at[k] < hi {
				visit(at[k], rows[k], byte(sym[k]))
			}
			if at[k] > stop[k] {
				k++
				continue
			}
			active--
			rows[k], at[k], stop[k], sym[k] = rows[active], at[active], stop[active], sym[active]
		}
	}
}

// ForDocRows calls fn once with every suffix-array row of document d,
// its separator's included — DocLen(d)+1 rows, in no particular order.
// Deleting a document clears exactly these rows.
func (x *Index) ForDocRows(d int, fn func(row int)) {
	lo, end, endRow := x.docSpan(d)
	x.walkRange(lo, lo+x.DocLen(d)+1, end, endRow, func(_, row int, _ byte) { fn(row) })
}

// LocateRows replaces each rows[k], a suffix-array row, by its location
// packed as docIndex<<32 | offset: sorting packed words ascending orders
// them by document, offsets ascending within each. Each row walks LF to
// the nearest SA-sampled row, walkLanes rows at a time, a lane taking
// the next row as soon as its own is located; a lane reads its row
// before any lane writes that slot, so the locations can overwrite the
// rows.
func (x *Index) LocateRows(rows []uint64) {
	var cur, slot, steps [walkLanes]int
	var sym [walkLanes]uint32
	active, next := 0, 0
	for {
		for active < walkLanes && next < len(rows) {
			cur[active], slot[active], steps[active] = int(rows[next]), next, 0
			active++
			next++
		}
		if active == 0 {
			return
		}
		for k := 0; k < active; {
			marked, r := x.marked.GetRank1(cur[k])
			if !marked {
				k++
				continue
			}
			d, off := x.posToDoc(x.saSamp.get(r)*x.saScale + steps[k])
			rows[slot[k]] = uint64(d)<<32 | uint64(uint32(off))
			active--
			cur[k], slot[k], steps[k] = cur[active], slot[active], steps[active]
		}
		x.lfSteps(cur[:active], sym[:active])
		for k := range steps[:active] {
			steps[k]++
		}
	}
}
