package wavelet

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"dyncoll/internal/huffman"
	"dyncoll/internal/snap"
)

// newQuad builds the 4-ary tree of s over [0, sigma).
func newQuad(s []byte, sigma int) *Quad {
	return NewQuadBytesCounted(s, huffman.Freq(s, sigma))
}

// scalarDigit reads digit i of a level one word at a time.
func scalarDigit(words []uint64, i int) uint {
	return uint(words[i/32]>>(2*uint(i%32))) & 3
}

// scalarRank counts digit d in [0, i) digit by digit.
func scalarRank(words []uint64, d uint, i int) int {
	r := 0
	for k := 0; k < i; k++ {
		if scalarDigit(words, k) == d {
			r++
		}
	}
	return r
}

// randomDigits returns n digits in packed words, drawn with a skew so
// that some levels are nearly constant and others uniform.
func randomDigits(rng *rand.Rand, n int, skew float64) []uint64 {
	words := make([]uint64, (n+31)/32)
	for i := 0; i < n; i++ {
		d := uint64(rng.Intn(4))
		if rng.Float64() < skew {
			d = 0
		}
		words[i/32] |= d << (2 * uint(i%32))
	}
	return words
}

// levelForms returns the level of n digits in words as the build makes
// it, as a v1 load rebuilds it and as a mapped open aliases it.
func levelForms(t testing.TB, words []uint64, n int) map[string]*quadLevel {
	heap := newQuadLevel(words, n)
	e := snap.Encoder{}
	e.Words(words)
	v1, ok := decodeQuadLevel(snap.NewDecoder(e.Bytes()), n)
	if !ok {
		t.Fatalf("n=%d: v1 level does not decode", n)
	}
	me := snap.MapEncoder{}
	heap.encodeMapped(&me)
	mv := snap.NewMapView(me.Bytes())
	v2, ok := viewQuadLevel(mv, n)
	if !ok {
		t.Fatalf("n=%d: mapped level does not open: %v", n, mv.Err())
	}
	return map[string]*quadLevel{"heap": &heap, "v1": &v1, "mapped": &v2}
}

// checkLevelKernel holds rank, digitRank and rankPair to the scalar
// reference at every position of the level.
func checkLevelKernel(t testing.TB, form string, lv *quadLevel) {
	t.Helper()
	n := lv.n
	var ranks [4][]int
	for d := range ranks {
		ranks[d] = make([]int, n+1)
		for i := 0; i < n; i++ {
			ranks[d][i+1] = ranks[d][i]
			if scalarDigit(lv.words, i) == uint(d) {
				ranks[d][i+1]++
			}
		}
	}
	for i := 0; i <= n; i++ {
		for d := uint(0); d < 4; d++ {
			if got := lv.rank(d, i); got != ranks[d][i] {
				t.Fatalf("%s n=%d: rank(%d, %d) = %d, want %d", form, n, d, i, got, ranks[d][i])
			}
			for _, j := range []int{i, i + 1, i + 37, i + 128, n} {
				if j > n {
					continue
				}
				ri, rj := lv.rankPair(d, i, j)
				if ri != ranks[d][i] || rj != ranks[d][j] {
					t.Fatalf("%s n=%d: rankPair(%d, %d, %d) = %d,%d, want %d,%d", form, n, d, i, j, ri, rj, ranks[d][i], ranks[d][j])
				}
			}
		}
		if i < n {
			wd := scalarDigit(lv.words, i)
			if d, r := lv.digitRank(i); d != wd || r != ranks[wd][i] {
				t.Fatalf("%s n=%d: digitRank(%d) = %d,%d, want %d,%d", form, n, i, d, r, wd, ranks[wd][i])
			}
		}
	}
}

// TestQuadLevelKernel holds the digit-rank kernel to the scalar
// reference on levels of 0 to 4,096 digits — every length around the
// quarter, block and word boundaries — in all three forms.
func TestQuadLevelKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	lengths := []int{0, 1, 2, 31, 32, 33, 127, 128, 129, 255, 256, 257, 383, 384, 511, 512, 513, 1000, 4095, 4096}
	for k := 0; k < 12; k++ {
		lengths = append(lengths, 1+rng.Intn(4096))
	}
	for _, n := range lengths {
		for _, skew := range []float64{0, 0.9} {
			words := randomDigits(rng, n, skew)
			for form, lv := range levelForms(t, words, n) {
				checkLevelKernel(t, form, lv)
			}
		}
	}
}

// TestQuadLevelSuperblocks crosses a superblock boundary, where the
// 16-bit block entries restart from the superblock's absolute counts.
func TestQuadLevelSuperblocks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 2*quadBlockDigits*quadSuperBlocks + 300
	words := randomDigits(rng, n, 0.5)
	for form, lv := range levelForms(t, words, n) {
		for k := 0; k < 2000; k++ {
			i := rng.Intn(n + 1)
			if k < 20 {
				i = quadBlockDigits*quadSuperBlocks*(k%3) + k - 10
				i = min(max(i, 0), n)
			}
			d := uint(rng.Intn(4))
			if got, want := lv.rank(d, i), scalarRank(words, d, i); got != want {
				t.Fatalf("%s: rank(%d, %d) = %d, want %d", form, d, i, got, want)
			}
		}
	}
}

func FuzzQuadRank(f *testing.F) {
	f.Add([]byte{0xe4, 0x1b, 0xff, 0x00}, uint16(13), uint16(5), uint16(9))
	f.Add(make([]byte, 8*9), uint16(32*9-1), uint16(300), uint16(1))
	f.Add(bytes.Repeat([]byte{0x39}, 8*17), uint16(32*17), uint16(128), uint16(255))
	f.Fuzz(func(t *testing.T, raw []byte, nRaw, iRaw, jRaw uint16) {
		words := make([]uint64, (len(raw)+7)/8)
		for k, b := range raw {
			words[k/8] |= uint64(b) << (8 * uint(k%8))
		}
		n := int(nRaw) % (32*len(words) + 1)
		if rem := n % 32; rem != 0 {
			words[n/32] &= 1<<(2*uint(rem)) - 1
		}
		words = words[:(n+31)/32]
		for form, lv := range levelForms(t, words, n) {
			i := int(iRaw) % (n + 1)
			j := i + int(jRaw)%(n-i+1)
			for d := uint(0); d < 4; d++ {
				wi, wj := scalarRank(words, d, i), scalarRank(words, d, j)
				if got := lv.rank(d, i); got != wi {
					t.Fatalf("%s n=%d: rank(%d, %d) = %d, want %d", form, n, d, i, got, wi)
				}
				if ri, rj := lv.rankPair(d, i, j); ri != wi || rj != wj {
					t.Fatalf("%s n=%d: rankPair(%d, %d, %d) = %d,%d, want %d,%d", form, n, d, i, j, ri, rj, wi, wj)
				}
			}
			if i < n {
				wd := scalarDigit(words, i)
				if d, r := lv.digitRank(i); d != wd || r != scalarRank(words, wd, i) {
					t.Fatalf("%s n=%d: digitRank(%d) = %d,%d", form, n, i, d, r)
				}
			}
		}
	})
}

// quadForms returns q as built, after a v1 round trip and after a
// mapped round trip, failing unless both re-encode byte for byte.
func quadForms(t testing.TB, q *Quad) map[string]*Quad {
	t.Helper()
	e := snap.Encoder{}
	q.EncodeTo(&e)
	d := snap.NewDecoder(e.Bytes())
	v1 := DecodeQuadFrom(d)
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("v1 decode: %v (%d bytes left)", d.Err(), d.Remaining())
	}
	me := snap.MapEncoder{}
	q.EncodeMapped(&me)
	mv := snap.NewMapView(me.Bytes())
	v2 := ViewMappedQuad(mv)
	if mv.Err() != nil || mv.Remaining() != 0 {
		t.Fatalf("mapped open: %v (%d bytes left)", mv.Err(), mv.Remaining())
	}
	for form, x := range map[string]*Quad{"v1": v1, "mapped": v2} {
		e2 := snap.Encoder{}
		x.EncodeTo(&e2)
		me2 := snap.MapEncoder{}
		x.EncodeMapped(&me2)
		if !bytes.Equal(e2.Bytes(), e.Bytes()) || !bytes.Equal(me2.Bytes(), me.Bytes()) {
			t.Fatalf("%s form re-encodes differently", form)
		}
	}
	return map[string]*Quad{"heap": q, "v1": v1, "mapped": v2}
}

// checkQuad holds every query of q to the sequence s.
func checkQuad(t *testing.T, form string, q *Quad, s []byte, sigma int) {
	t.Helper()
	if q.Len() != len(s) {
		t.Fatalf("%s: Len = %d, want %d", form, q.Len(), len(s))
	}
	rank := make([]int, sigma)
	pos, sym := make([]int, len(s)), make([]uint32, len(s))
	for i := range pos {
		pos[i] = i
	}
	if len(s) > 0 {
		q.AccessRanks(pos, sym)
	}
	for i, c := range s {
		if sym[i] != uint32(c) || pos[i] != rank[c] {
			t.Fatalf("%s: AccessRanks at %d = %d,%d, want %d,%d", form, i, sym[i], pos[i], c, rank[c])
		}
		if i%7 == 0 {
			for x := 0; x < sigma; x++ {
				if got, _ := q.RankPair(uint32(x), i, i); got != rank[x] {
					t.Fatalf("%s: Rank(%d, %d) = %d, want %d", form, x, i, got, rank[x])
				}
			}
		}
		rank[c]++
	}
	for x := 0; x < sigma; x++ {
		if got := q.Count(uint32(x)); got != rank[x] {
			t.Fatalf("%s: Count(%d) = %d, want %d", form, x, got, rank[x])
		}
	}
	got := make([]byte, len(s))
	q.ReadAll(got, nil)
	if !bytes.Equal(got, s) {
		t.Fatalf("%s: ReadAll reads a different sequence", form)
	}
}

// quadSequences are the shapes the tree must handle: empty, one symbol,
// two, a skewed byte text, a uniform one and a full byte alphabet.
func quadSequences(rng *rand.Rand) (seqs [][]byte, sigmas []int) {
	skewed := make([]byte, 5000)
	for i := range skewed {
		v := rng.Intn(256)
		skewed[i] = byte(v * v / 256)
	}
	uniform := make([]byte, 3000)
	for i := range uniform {
		uniform[i] = byte(rng.Intn(37))
	}
	full := make([]byte, 4096)
	for i := range full {
		full[i] = byte(i)
	}
	rng.Shuffle(len(full), func(i, j int) { full[i], full[j] = full[j], full[i] })
	return [][]byte{nil, {3, 3, 3}, {1, 0, 1, 1, 0}, skewed, uniform, full},
		[]int{256, 4, 2, 256, 37, 256}
}

func TestQuadAgainstSequence(t *testing.T) {
	seqs, sigmas := quadSequences(rand.New(rand.NewSource(1)))
	for k, s := range seqs {
		for form, q := range quadForms(t, newQuad(s, sigmas[k])) {
			checkQuad(t, form, q, s, sigmas[k])
		}
	}
}

// TestQuadMatchesBinaryRanks compares RankPair with the binary tree's
// over the same sequence at random intervals.
func TestQuadMatchesBinaryRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	seqs, sigmas := quadSequences(rng)
	for k, s := range seqs {
		q, b := newQuad(s, sigmas[k]), NewHuffmanBytes(s, sigmas[k])
		for range 2000 {
			i := rng.Intn(len(s) + 1)
			j := i + rng.Intn(len(s)-i+1)
			c := uint32(rng.Intn(sigmas[k]))
			qi, qj := q.RankPair(c, i, j)
			bi, bj := b.RankPair(c, i, j)
			if qi != bi || qj != bj {
				t.Fatalf("seq %d: RankPair(%d, %d, %d) = %d,%d, binary %d,%d", k, c, i, j, qi, qj, bi, bj)
			}
		}
	}
}

// TestQuadCodes pins the code shape: canonical 4-ary Huffman codes,
// one leaf per occurring symbol, and a walk as long as the code.
func TestQuadCodes(t *testing.T) {
	s := []byte("abracadabra arbadacarba")
	q := newQuad(s, 256)
	want := huffman.Build4(huffman.Freq(s, 256))
	walk := func(c int) int { return int(q.at[c+1] - q.at[c]) }
	for c := range 256 {
		if got := walk(c); got != want[c].Len {
			t.Fatalf("walk of %q takes %d digits, want %d", c, got, want[c].Len)
		}
	}
	if walk('a') != 1 || walk('z') != 0 {
		t.Fatalf("a: %d digits, z: %d", walk('a'), walk('z'))
	}
}

// TestQuadDecodeRejects feeds truncated and altered encodings to both
// decoders: each must fail with snap.ErrBadSnapshot, never panic.
func TestQuadDecodeRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seqs, sigmas := quadSequences(rng)
	q := newQuad(seqs[3], sigmas[3])
	e := snap.Encoder{}
	q.EncodeTo(&e)
	me := snap.MapEncoder{}
	q.EncodeMapped(&me)
	v1 := func(p []byte) error {
		d := snap.NewDecoder(p)
		if DecodeQuadFrom(d) != nil && d.Remaining() != 0 {
			d.Fail("trailing bytes")
		}
		return d.Err()
	}
	v2 := func(p []byte) error {
		mv := snap.NewMapView(p)
		if ViewMappedQuad(mv) != nil && mv.Remaining() != 0 {
			mv.Fail("trailing bytes")
		}
		return mv.Err()
	}
	for name, c := range map[string]struct {
		data   []byte
		decode func([]byte) error
		step   int
	}{"v1": {e.Bytes(), v1, 1}, "mapped": {me.Bytes(), v2, 8}} {
		for cut := 0; cut < len(c.data); cut += c.step {
			if err := c.decode(c.data[:cut]); !errors.Is(err, snap.ErrBadSnapshot) {
				t.Fatalf("%s cut at %d: %v", name, cut, err)
			}
		}
		for range 300 {
			p := bytes.Clone(c.data)
			p[rng.Intn(len(p))] ^= byte(1 << rng.Intn(8))
			if err := c.decode(p); err != nil && !errors.Is(err, snap.ErrBadSnapshot) {
				t.Fatalf("%s: flipped bit gives %v", name, err)
			}
		}
	}
}

// wrappingHeader is a header of k ≥ 16 length-1 codes, one occurrence
// each: its Kraft sum, 16 terms of 4^(MaxDigits−1), wraps a uint64 if
// added unchecked. level is the digit level such a header lays out —
// symbol c writes digit c mod 4 at the root — so its counts agree with
// the header and only the Kraft check stands between the pair and a
// tree whose codes collide.
func wrappingHeader(k int) (lens []int, freq []int64, level []uint64) {
	lens, freq = slices.Repeat([]int{1}, k), slices.Repeat([]int64{1}, k)
	level = make([]uint64, (k+31)/32)
	for c := range k {
		level[c/32] |= uint64(c&3) << (2 * uint(c%32))
	}
	return lens, freq, level
}

// TestQuadHostileHeaders: headers that describe no valid tree fail
// before anything is sized from them.
func TestQuadHostileHeaders(t *testing.T) {
	header := func(sigma, n int, lens []int, freq []int64, levels ...[]uint64) []byte {
		e := snap.Encoder{}
		e.Uvarint(uint64(sigma))
		e.Uvarint(uint64(n))
		for _, l := range lens {
			e.Uvarint(uint64(l))
		}
		for _, f := range freq {
			e.Uvarint(uint64(f))
		}
		for _, words := range levels {
			e.Words(words)
		}
		return e.Bytes()
	}
	wraps := func(k int) []byte {
		lens, freq, level := wrappingHeader(k)
		return header(k, k, lens, freq, level)
	}
	for name, data := range map[string][]byte{
		"empty alphabet":   header(0, 0, nil, nil),
		"wide alphabet":    header(300, 0, nil, nil),
		"code too long":    header(2, 3, []int{huffman.MaxDigits + 1, 1}, []int64{1, 2}),
		"kraft broken":     header(5, 5, []int{1, 1, 1, 1, 1}, []int64{1, 1, 1, 1, 1}),
		"kraft wraps":      wraps(16),
		"kraft wraps past": wraps(17),
		"kraft wraps, heavy symbol": header(17, 1<<20+16, append(slices.Repeat([]int{1}, 16), 2),
			append(slices.Repeat([]int64{1}, 16), 1<<20)),
		"frequency sum":    header(2, 9, []int{1, 1}, []int64{1, 2}),
		"uncoded symbol":   header(2, 3, []int{0, 1}, []int64{1, 2}),
		"huge length":      header(1, 1<<40, []int{1}, []int64{1 << 40}),
		"missing levels":   header(2, 3, []int{1, 1}, []int64{1, 2}),
		"short level":      append(header(2, 40, []int{1, 1}, []int64{20, 20}), 1, 0, 0, 0, 0, 0, 0, 0, 0),
		"counts disagree":  append(header(2, 3, []int{1, 1}, []int64{1, 2}), 1, 0, 0, 0, 0, 0, 0, 0, 0),
		"stray pad digits": append(header(1, 1, []int{1}, []int64{1}), 1, 4, 0, 0, 0, 0, 0, 0, 0),
	} {
		d := snap.NewDecoder(data)
		if DecodeQuadFrom(d) != nil || !errors.Is(d.Err(), snap.ErrBadSnapshot) {
			t.Fatalf("%s: decoded, err = %v", name, d.Err())
		}
	}
}

// TestQuadHostileMappedHeaders is TestQuadHostileHeaders for the mapped
// opener, whose levels carry their directories.
func TestQuadHostileMappedHeaders(t *testing.T) {
	header := func(n int, lens []int, freq []int64, levels ...[]uint64) []byte {
		e := snap.MapEncoder{}
		e.U64(uint64(len(lens)))
		e.U64(uint64(n))
		lens32, freq64 := make([]int32, len(lens)), make([]uint64, len(freq))
		for c := range lens {
			lens32[c], freq64[c] = int32(lens[c]), uint64(freq[c])
		}
		e.Int32s(lens32)
		e.Words(freq64)
		e.U64(uint64(len(levels)))
		for _, words := range levels {
			lv := newQuadLevel(words, n)
			lv.encodeMapped(&e)
		}
		return e.Bytes()
	}
	wraps := func(k int) []byte {
		lens, freq, level := wrappingHeader(k)
		return header(k, lens, freq, level)
	}
	for name, data := range map[string][]byte{
		"kraft broken":     header(5, []int{1, 1, 1, 1, 1}, []int64{1, 1, 1, 1, 1}, []uint64{0b11_10_01_00}),
		"kraft wraps":      wraps(16),
		"kraft wraps past": wraps(17),
		"kraft wraps, heavy symbol": header(1<<20+16, append(slices.Repeat([]int{1}, 16), 2),
			append(slices.Repeat([]int64{1}, 16), 1<<20)),
	} {
		mv := snap.NewMapView(data)
		if ViewMappedQuad(mv) != nil || !errors.Is(mv.Err(), snap.ErrBadSnapshot) {
			t.Fatalf("%s: opened, err = %v", name, mv.Err())
		}
	}
}
