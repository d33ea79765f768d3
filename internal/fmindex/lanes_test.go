package fmindex

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dyncoll/internal/doc"
	"dyncoll/internal/textgen"
)

// The scalar walks the lanes replaced: one dependent LF chain per query,
// kept as the differential reference for every lane walk.

// scalarLF is one LF step, finding a separator row's target by binary
// search over sepRows.
func (x *Index) scalarLF(row int) int {
	b, r := x.bwt.AccessRank(row)
	if byte(b) == Sep {
		i := sort.Search(len(x.sepRows), func(i int) bool { return x.sepRows[i] >= int32(row) })
		return int(x.sepTargets[i])
	}
	return x.c[b] + r
}

// scalarSuffixRank walks from the first sample at or after the position.
func (x *Index) scalarSuffixRank(d, off int) int {
	start, end, endRow := x.docSpan(d)
	pos := start + off
	j := sampleAfter(pos, x.s, end)
	row := x.sampleRow(j, endRow)
	for ; j > pos; j-- {
		row = x.scalarLF(row)
	}
	return row
}

// scalarExtract walks LF from the row of the last wanted position and
// reads each symbol off the row's first column.
func (x *Index) scalarExtract(d, off, length int) []byte {
	off, length = doc.Clamp(off, length, x.DocLen(d))
	if length == 0 {
		return nil
	}
	row := x.scalarSuffixRank(d, off+length-1)
	out := make([]byte, length)
	for i := length - 1; i >= 0; i-- {
		out[i] = x.sym.at(row)
		if i > 0 {
			row = x.scalarLF(row)
		}
	}
	return out
}

// scalarLocate walks LF to the nearest marked row.
func (x *Index) scalarLocate(row int) (int, int) {
	steps := 0
	for !x.marked.Get(row) {
		row = x.scalarLF(row)
		steps++
	}
	return x.posToDoc(x.saSamp.get(x.marked.Rank1(row))*x.saScale + steps)
}

// scalarDocRows is the single-chain delete walk: from the separator's
// row, one LF step per payload symbol.
func (x *Index) scalarDocRows(d int) []int {
	row := x.scalarSuffixRank(d, x.DocLen(d))
	rows := []int{row}
	for off := x.DocLen(d); off > 0; off-- {
		row = x.scalarLF(row)
		rows = append(rows, row)
	}
	return rows
}

// laneCorpora are the collections the lane tests run on: empty,
// one-symbol and unary documents, byte-identical ones (whose separator
// suffixes tie), a document longer than many lanes' worth of segments,
// and random ones; the last document of each is the one whose walks
// start from the n−1 sample.
func laneCorpora(rng *rand.Rand) map[string][]doc.Doc {
	mk := func(payloads ...[]byte) []doc.Doc {
		docs := make([]doc.Doc, len(payloads))
		for i, p := range payloads {
			docs[i] = doc.Doc{ID: uint64(100 + i), Data: p}
		}
		return docs
	}
	rnd := func(sigma, n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(1 + rng.Intn(sigma))
		}
		return p
	}
	random := make([][]byte, 12)
	for i := range random {
		random[i] = rnd(1+i%5*3, rng.Intn(40))
	}
	return map[string][]doc.Doc{
		"one-empty":   mk(nil),
		"one-symbol":  mk([]byte{7}),
		"empties":     mk(nil, []byte("ab"), nil, nil),
		"unary":       mk([]byte("aaaaaaaaaaaaaaaaaaaaa"), []byte("aa"), []byte("aaaaaaaaa")),
		"duplicates":  mk([]byte("abab"), []byte("abab"), nil, []byte("abab"), []byte("ab")),
		"long":        mk(rnd(4, 17), rnd(6, 300), rnd(2, 33)),
		"random":      mk(random...),
		"last-single": mk(rnd(3, 20), []byte{9}),
	}
}

// TestLaneWalksMatchScalar holds every lane walk to its scalar reference
// on built, decoded and mapped indexes at s ∈ {1, 4, 16}: Extract over
// every (off, length) of every document — which crosses every sample
// boundary — and out-of-range requests, SuffixRank at every position
// including separators, Locate and LocateRows at every row (the latter
// in a shuffled order), and ForDocRows against the single-chain delete.
func TestLaneWalksMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for name, docs := range laneCorpora(rng) {
		for _, s := range []int{1, 4, 16} {
			for form, x := range indexForms(t, docs, s) {
				t.Run(fmt.Sprintf("%s/s=%d/%s", name, s, form), func(t *testing.T) {
					checkLaneWalks(t, x, rng)
				})
			}
		}
	}
}

func checkLaneWalks(t *testing.T, x *Index, rng *rand.Rand) {
	for d := 0; d < x.DocCount(); d++ {
		dl := x.DocLen(d)
		for off := -1; off <= dl+1; off++ {
			for length := -1; off+length <= dl+1; length++ {
				got, want := x.Extract(d, off, length), x.scalarExtract(d, off, length)
				if !bytes.Equal(got, want) {
					t.Fatalf("doc %d: Extract(%d, %d) = %q, scalar %q", d, off, length, got, want)
				}
			}
		}
		for off := 0; off <= dl; off++ {
			if got, want := x.SuffixRank(d, off), x.scalarSuffixRank(d, off); got != want {
				t.Fatalf("doc %d: SuffixRank(%d) = %d, scalar %d", d, off, got, want)
			}
		}
		var rows []int
		x.ForDocRows(d, func(row int) { rows = append(rows, row) })
		want := x.scalarDocRows(d)
		slices.Sort(rows)
		slices.Sort(want)
		if !slices.Equal(rows, want) {
			t.Fatalf("doc %d: ForDocRows visited %v, scalar walk %v", d, rows, want)
		}
	}
	perm := rng.Perm(x.SALen())
	out := make([]uint64, len(perm))
	for k, row := range perm {
		out[k] = uint64(row)
	}
	x.LocateRows(out)
	for k, row := range perm {
		d, off := x.scalarLocate(row)
		if gd, goff := x.Locate(row); gd != d || goff != off {
			t.Fatalf("Locate(%d) = (%d,%d), scalar (%d,%d)", row, gd, goff, d, off)
		}
		if want := uint64(d)<<32 | uint64(off); out[k] != want {
			t.Fatalf("LocateRows: row %d packed %x, scalar %x", row, out[k], want)
		}
	}
}

// TestWalkPlanSteps is the LF-step gate. It enumerates the lane plan —
// a pure function of the range and (s, n) — over every (off, length) of
// a few documents laid out as in an index (each followed by its
// separator) and asserts that the plan reaches every wanted position
// exactly once and takes no more LF steps than the scalar chain:
// SuffixRank's distance to the next sample, plus length − 1. A
// document's delete walk is the plan of its dl + 1 positions, separator
// included, so it visits exactly dl + 1 rows, each once.
func TestWalkPlanSteps(t *testing.T) {
	layouts := [][]int{{0}, {5}, {1, 0, 3}, {16, 15, 17}, {31, 1, 64, 2}, {40, 0, 0, 9, 100}}
	for _, lens := range layouts {
		var starts []int
		n := 0
		for _, dl := range lens {
			starts = append(starts, n)
			n += dl + 1
		}
		for _, s := range []int{1, 4, 16} {
			for d, dl := range lens {
				start := starts[d]
				for off := 0; off < dl; off++ {
					for length := 1; off+length <= dl; length++ {
						lo, hi := start+off, start+off+length
						scalar := sampleAfter(hi-1, s, n) - (hi - 1) + length - 1
						if steps := checkPlan(t, lo, hi, s, n); steps > scalar {
							t.Fatalf("lens %v s=%d doc %d: Extract(%d, %d) plans %d LF steps, scalar chain %d",
								lens, s, d, off, length, steps, scalar)
						}
					}
				}
				scalar := sampleAfter(start+dl, s, n) - (start + dl) + dl
				if steps := checkPlan(t, start, start+dl+1, s, n); steps > scalar {
					t.Fatalf("lens %v s=%d doc %d: delete plans %d LF steps, scalar chain %d", lens, s, d, steps, scalar)
				}
			}
		}
	}
}

// checkPlan runs the plan of [lo, hi) symbolically, asserts that it
// starts every segment at a sampled position, reaches each position of
// the range exactly once, starts at most walkLanes segments, and that
// its longest segment takes no more steps than walkLanes lanes taking
// the one-interval segments between sampled positions in turn would
// (the rows it looks up are fewer, not the lanes' steps more), and
// returns its LF steps.
func checkPlan(t *testing.T, lo, hi, s, n int) int {
	t.Helper()
	sampled := func(j int) bool { return j%s == 0 || j == n-1 }
	seen := make(map[int]int)
	p, direct := planWalk(lo, hi, s, n)
	if direct {
		if !sampled(hi - 1) {
			t.Fatalf("[%d,%d) s=%d n=%d: direct top %d is not sampled", lo, hi, s, n, hi-1)
		}
		seen[hi-1]++
	}
	steps, segments, longest := 0, 0, 0
	for {
		from, k, ok := p.next()
		if !ok {
			break
		}
		if !sampled(from) || k < 1 || from-k < lo {
			t.Fatalf("[%d,%d) s=%d n=%d: segment from %d for %d steps", lo, hi, s, n, from, k)
		}
		segments, longest = segments+1, max(longest, k)
		for q := from - 1; q >= from-k; q-- {
			if q < hi {
				seen[q]++
			}
		}
		steps += k
	}
	for q := lo; q < hi; q++ {
		if seen[q] != 1 {
			t.Fatalf("[%d,%d) s=%d n=%d: position %d reached %d times", lo, hi, s, n, q, seen[q])
		}
	}
	if len(seen) != hi-lo {
		t.Fatalf("[%d,%d) s=%d n=%d: plan reaches %d positions", lo, hi, s, n, len(seen))
	}
	var free [walkLanes]int // when each lane is done, taking intervals in turn
	for from := sampleAfter(hi-1, s, n); from > lo; {
		to := max(lo, (from-1)/s*s)
		i := slices.Index(free[:], slices.Min(free[:]))
		free[i] += from - to
		from = to
	}
	if segments > walkLanes || longest > slices.Max(free[:]) {
		t.Fatalf("[%d,%d) s=%d n=%d: %d segments, the longest %d steps; lanes taking intervals in turn finish after %d",
			lo, hi, s, n, segments, longest, slices.Max(free[:]))
	}
	return steps
}

// BenchmarkFMExtract prices a 256-byte Extract cold, by store size:
// stores of one size that together hold 16 MiB, as a lib_query-sized
// ladder does, and each extract from a random store, so the caches hold
// little of the store it reads. 135 KB is one of that ladder's
// 256-document batches, 280 KB a top of two of them, 550 and 1100 KB
// tops of four and eight. DESIGN ("Grouped ingest") sizes the engine's
// open-top weight G = max(192 KiB, nf/(4τ)) against this sweep; that
// ladder's tops reach ~0.9 MB. Lanes against the scalar chain.
func BenchmarkFMExtract(b *testing.B) {
	docs := textgen.NewCollection(textgen.CollectionOptions{Seed: 3}).GenerateTotal(16 << 20)
	for _, shape := range treeShapes {
		for _, size := range []int{135 << 10, 280 << 10, 550 << 10, 1100 << 10} {
			benchExtract(b, shape.name, docs, size, shape.layout)
		}
	}
}

// benchExtract runs BenchmarkFMExtract's sweep at one store size over
// one tree shape.
func benchExtract(b *testing.B, shape string, docs []doc.Doc, size int, layout Layout) {
	var stores []*Index
	for rest := docs; len(rest) > 0; {
		n, sz := 0, 0
		for ; n < len(rest) && sz < size; n++ {
			sz += len(rest[n].Data)
		}
		stores = append(stores, Build(rest[:n], Options{Layout: layout}))
		rest = rest[n:]
	}
	rng := rand.New(rand.NewSource(5))
	type req struct {
		x      *Index
		d, off int
	}
	reqs := make([]req, 4096)
	for i := range reqs {
		x := stores[rng.Intn(len(stores))]
		d := rng.Intn(x.DocCount())
		reqs[i] = req{x, d, rng.Intn(max(x.DocLen(d)-256, 0) + 1)}
	}
	for _, impl := range []struct {
		name    string
		extract func(x *Index, d, off, length int) []byte
	}{{"lanes", (*Index).Extract}, {"scalar", (*Index).scalarExtract}} {
		b.Run(fmt.Sprintf("%s/%s/%dKB", shape, impl.name, size>>10), func(b *testing.B) {
			b.ReportMetric(float64(len(stores)), "stores")
			for i := 0; i < b.N; i++ {
				r := reqs[i&4095]
				extractSink = impl.extract(r.x, r.d, r.off, 256)
			}
		})
	}
}

var extractSink []byte
