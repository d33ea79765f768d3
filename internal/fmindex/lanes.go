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
// at the next sampled position below it (or at lo), and no segment
// depends on another.
//
// The top segment starts where SuffixRank(hi-1) would: at the first
// sampled position at or after hi-1. When that is hi-1 itself, its row
// is a sample and no step is needed to reach it (planWalk reports it as
// direct); otherwise the first steps of the top segment pass positions
// at or above hi that nobody asked for, exactly the steps SuffixRank
// pays. So a plan takes the same number of steps as the scalar chain —
// SuffixRank's walk to hi-1, then one step per position below it — in
// ⌈(hi-lo)/s⌉ + 1 or fewer segments.
//
// A plan depends on (lo, hi, s, n) alone: the document boundaries do not
// matter, because a step across a separator is an ordinary LF step.
type walkPlan struct {
	lo, s int
	from  int // start of the next segment; lo when none is left
}

// planWalk returns the plan of the walk over [lo, hi), lo < hi ≤ n, and
// whether hi-1 is itself sampled (direct).
func planWalk(lo, hi, s, n int) (p walkPlan, direct bool) {
	top := sampleAfter(hi-1, s, n)
	return walkPlan{lo: lo, s: s, from: top}, top == hi-1
}

// next returns the next segment, top down: start at the row of the
// sampled position from and take steps LF steps, which visit the
// positions from-1 down to from-steps.
func (p *walkPlan) next() (from, steps int, ok bool) {
	if p.from <= p.lo {
		return 0, 0, false
	}
	from = p.from
	p.from = max(p.lo, (from-1)/p.s*p.s)
	return from, from - p.from, true
}

// sampleAfter is the first ISA-sampled position at or after pos < n.
func sampleAfter(pos, s, n int) int {
	if j := (pos + s - 1) / s * s; j < n {
		return j
	}
	return n - 1
}

// sampleRow is the row of the sampled position j.
func (x *Index) sampleRow(j int) int {
	if j%x.s == 0 {
		return x.isaSamp.get(j / x.s)
	}
	return x.isaSamp.get(x.isaSamp.n - 1) // j == n-1
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
// symbol at q, in no particular order.
func (x *Index) walkRange(lo, hi int, visit func(q, row int, b byte)) {
	p, direct := planWalk(lo, hi, x.s, x.n)
	if direct {
		row := x.sampleRow(hi - 1)
		visit(hi-1, row, x.sym.at(row))
	}
	var rows, at, stop [walkLanes]int // a lane's row, its text position, where its segment ends
	var sym [walkLanes]uint32
	active := 0
	for {
		for active < walkLanes {
			from, steps, ok := p.next()
			if !ok {
				break
			}
			rows[active], at[active], stop[active] = x.sampleRow(from), from, from-steps
			active++
		}
		if active == 0 {
			return
		}
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
	lo := int(x.docStarts[d])
	x.walkRange(lo, lo+x.DocLen(d)+1, func(_, row int, _ byte) { fn(row) })
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
