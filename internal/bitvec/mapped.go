package bitvec

import "dyncoll/internal/snap"

// Mapped form: the sealed vector's words *and* its rank/select
// directories are written verbatim, so a mapped open reconstructs the
// Vector by aliasing five arrays — no Seal pass, no O(n) popcounts.
// The arrays may point into read-only mapped memory; nothing in the
// query path writes to them, and Append/Seal on a mapped vector would
// panic on the sealed check before touching the words.

// EncodeMapped writes the sealed vector in mapped form.
func (v *Vector) EncodeMapped(e *snap.MapEncoder) {
	if !v.sealed {
		panic("bitvec: EncodeMapped before Seal")
	}
	e.U64(uint64(v.n))
	e.U64(uint64(v.ones))
	e.Words(v.words)
	e.Int64s(v.superRank)
	e.Int32s(v.selHint1)
	e.Int32s(v.selHint0)
}

// ViewMapped reconstructs a sealed vector from mapped form, validating
// the directory's structural invariants (lengths, monotonicity,
// totals, hint ranges) in O(n/512) so that corrupt directories fail
// the open instead of panicking a later query. The bit payload itself
// is not checksummed here — that is the opt-in full-verify pass.
func ViewMapped(mv *snap.MapView) *Vector {
	n := mv.Int()
	ones := mv.Int()
	words := mv.Words()
	superRank := mv.Int64s()
	selHint1 := mv.Int32s()
	selHint0 := mv.Int32s()
	if mv.Err() != nil {
		return nil
	}
	if ones > n {
		mv.Fail("bitvec: %d ones in %d bits", ones, n)
		return nil
	}
	if len(words) != (n+wordBits-1)/wordBits {
		mv.Fail("bitvec: %d words for %d bits", len(words), n)
		return nil
	}
	nSuper := (len(words) + superWords - 1) / superWords
	if len(superRank) != nSuper+1 {
		mv.Fail("bitvec: rank directory has %d entries, want %d", len(superRank), nSuper+1)
		return nil
	}
	if superRank[0] != 0 || superRank[nSuper] != int64(ones) {
		mv.Fail("bitvec: rank directory totals [%d,%d], want [0,%d]", superRank[0], superRank[nSuper], ones)
		return nil
	}
	for i := 0; i < nSuper; i++ {
		if superRank[i] > superRank[i+1] || superRank[i+1]-superRank[i] > superBits {
			mv.Fail("bitvec: rank directory not monotone at superblock %d", i)
			return nil
		}
	}
	if want := hintCount(ones); len(selHint1) != want {
		mv.Fail("bitvec: %d select-1 hints, want %d", len(selHint1), want)
		return nil
	}
	if want := hintCount(n - ones); len(selHint0) != want && len(selHint0) != 0 {
		mv.Fail("bitvec: %d select-0 hints, want %d or none", len(selHint0), want)
		return nil
	}
	for _, h := range selHint1 {
		if h < 0 || int(h) >= nSuper {
			mv.Fail("bitvec: select-1 hint %d out of %d superblocks", h, nSuper)
			return nil
		}
	}
	for _, h := range selHint0 {
		if h < 0 || int(h) >= nSuper {
			mv.Fail("bitvec: select-0 hint %d out of %d superblocks", h, nSuper)
			return nil
		}
	}
	return &Vector{
		words: words, n: n, sealed: true,
		superRank: superRank, selHint1: selHint1, selHint0: selHint0,
		ones: ones,
	}
}

// hintCount is the number of select hints buildSelectHints records for
// k matching bits: one per full selectSample block.
func hintCount(k int) int {
	if k <= 0 {
		return 0
	}
	return (k + selectSample - 1) / selectSample
}
