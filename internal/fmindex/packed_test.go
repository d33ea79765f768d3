package fmindex

import (
	"errors"
	"math/rand"
	"testing"
	"unsafe"

	"dyncoll/internal/snap"
	"dyncoll/internal/textgen"
)

func TestWidthFor(t *testing.T) {
	for _, c := range []struct {
		bound int
		want  uint
	}{{0, 1}, {1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1 << 20, 20}, {1<<20 + 1, 21}, {1 << 31, 31}, {1<<31 + 1, 32}} {
		if got := widthFor(c.bound); got != c.want {
			t.Errorf("widthFor(%d) = %d, want %d", c.bound, got, c.want)
		}
	}
}

// FuzzPackedInts holds the packed vector to a []uint32 model: random
// widths 1–32, lengths and values set in a random order, then read
// back; the width-32 view of the same values written as a mapped int32
// array must read alike.
func FuzzPackedInts(f *testing.F) {
	f.Add(uint8(1), uint16(0), int64(1))
	f.Add(uint8(20), uint16(100), int64(2))
	f.Add(uint8(31), uint16(65), int64(3))
	f.Add(uint8(32), uint16(7), int64(4))
	f.Fuzz(func(t *testing.T, w uint8, n uint16, seed int64) {
		width := uint(w)%32 + 1
		rng := rand.New(rand.NewSource(seed))
		model := make([]uint32, int(n)%2048)
		for i := range model {
			model[i] = uint32(rng.Uint64() & (1<<width - 1))
		}
		p := newPacked(len(model), 1<<width)
		if p.width != width || len(p.words) != wordsFor(len(model), width) {
			t.Fatalf("newPacked(%d, 2^%d): width %d, %d words", len(model), width, p.width, len(p.words))
		}
		// Fill with ones first, so set must clear what it overwrites.
		for i := range p.words {
			p.words[i] = ^uint64(0)
		}
		for _, i := range rng.Perm(len(model)) {
			p.set(i, uint64(model[i]))
		}
		for i, v := range model {
			if got := p.get(i); got != int(v) {
				t.Fatalf("width %d: get(%d) = %d, want %d", width, i, got, v)
			}
		}
		// Values below 2³¹ are int32 rows; written as a mapped int32
		// array, they read back through the width-32 view.
		rows := make([]int32, len(model))
		for i, v := range model {
			rows[i] = int32(v >> 1)
		}
		var e snap.MapEncoder
		e.Int32s(rows)
		e.U64(0xfeed) // what follows the array must stay outside the view
		mv := snap.NewMapView(e.Bytes())
		view := viewInt32s(mv)
		if mv.Err() != nil || view.n != len(rows) || len(view.words) != wordsFor(len(rows), 32) {
			t.Fatalf("view of %d int32s: err %v, %d values in %d words", len(rows), mv.Err(), view.n, len(view.words))
		}
		if mv.U64() != 0xfeed {
			t.Fatal("the view did not consume exactly the array and its padding")
		}
		for i, r := range rows {
			if got := view.get(i); got != int(r) {
				t.Fatalf("width-32 view: get(%d) = %d, want %d", i, got, r)
			}
		}
	})
}

// TestPackedGetStaysInside reads every value of vectors whose last value
// ends exactly at their last word's end, so a get that loaded one word
// too many would index past the slice.
func TestPackedGetStaysInside(t *testing.T) {
	for width := uint(1); width <= 32; width++ {
		n := 64 // n·width is a multiple of 64 for every width
		p := newPacked(n, 1<<width)
		if len(p.words) != int(width) {
			t.Fatalf("width %d: %d words", width, len(p.words))
		}
		for i := range n {
			p.set(i, uint64(i)&(1<<width-1))
		}
		for i := range n {
			if got := p.get(i); got != i&(1<<width-1) {
				t.Fatalf("width %d: get(%d) = %d", width, i, got)
			}
		}
	}
}

// TestFMZHostileSamples: an fmz payload whose sample width is 0, over
// 32 or not the one n and s give, or whose word count is not
// ⌈len·width/64⌉, fails both codecs with ErrBadSnapshot; the v1 codec
// also refuses a sample at or above its bound. The mutated ISA array
// is set as the one a mapped fmz file holds, which the encoders write
// as they find it.
func TestFMZHostileSamples(t *testing.T) {
	x := Build(testDocs(40, rand.New(rand.NewSource(45))), Options{SampleRate: 4, Layout: FMZ})
	x.isaSamp = x.isaRows()
	v1 := func(y *Index) error {
		data, _ := y.AppendBinary(nil)
		_, err := Decode(data, FMZ)
		return err
	}
	v2 := func(y *Index) error {
		var e snap.MapEncoder
		y.EncodeMapped(&e)
		_, err := OpenMapped(snap.NewMapView(e.Bytes()), FMZ)
		return err
	}
	if err := errors.Join(v1(x), v2(x)); err != nil {
		t.Fatalf("unmodified index: %v", err)
	}
	type mutation struct {
		name string
		mut  func(p *packed)
	}
	shapes := []mutation{
		{"width 0", func(p *packed) { p.width = 0 }},
		{"width 33", func(p *packed) { p.width = 33 }},
		{"width 64", func(p *packed) { p.width = 64 }},
		{"width one more", func(p *packed) { p.width++ }},
		{"width one less", func(p *packed) { p.width-- }},
		{"one word more", func(p *packed) { p.words = append(p.words, 0) }},
		{"one word less", func(p *packed) { p.words = p.words[:len(p.words)-1] }},
		{"no words", func(p *packed) { p.words = nil }},
	}
	for _, which := range []string{"SA", "ISA"} {
		for _, m := range shapes {
			y := *x
			p := &y.saSamp
			if which == "ISA" {
				p = &y.isaSamp
			}
			p.words = append([]uint64(nil), p.words...)
			m.mut(p)
			for form, open := range map[string]func(*Index) error{"v1": v1, "v2": v2} {
				if err := open(&y); !errors.Is(err, snap.ErrBadSnapshot) {
					t.Errorf("%s samples, %s, %s: err = %v, want ErrBadSnapshot", which, m.name, form, err)
				}
			}
		}
	}
	// A value at its bound fits the width whenever the bound is not a
	// power of two, as ⌈n/s⌉ and n are here.
	for _, c := range []struct {
		which string
		p     func(*Index) *packed
		bound int
	}{
		{"SA", func(y *Index) *packed { return &y.saSamp }, saBound(x.n, x.s)},
		{"ISA", func(y *Index) *packed { return &y.isaSamp }, x.n},
	} {
		y := *x
		p := c.p(&y)
		if c.bound >= 1<<p.width {
			t.Fatalf("%s bound %d does not fit %d bits", c.which, c.bound, p.width)
		}
		p.words = append([]uint64(nil), p.words...)
		p.set(p.n-1, uint64(c.bound))
		if err := v1(&y); !errors.Is(err, snap.ErrBadSnapshot) {
			t.Errorf("%s sample at its bound, v1: err = %v, want ErrBadSnapshot", c.which, err)
		}
	}
}

// TestMappedSamplesAreViews: opening an fmp payload aliases its SA
// samples, shortcuts and select samples in the payload, and opening an
// fmz or a legacy fm4 one aliases both sample arrays, instead of
// copying them.
func TestMappedSamplesAreViews(t *testing.T) {
	docs := testDocs(200, rand.New(rand.NewSource(46)))
	for _, l := range []Layout{FMP, FMZ, FM4, FM} {
		var e snap.MapEncoder
		Build(docs, Options{Layout: l}).EncodeMapped(&e)
		// The words alias only where the payload is 8-aligned.
		buf := make([]uint64, (e.Len()+7)/8)
		payload := unsafe.Slice((*byte)(unsafe.Pointer(&buf[0])), e.Len())
		copy(payload, e.Bytes())
		x, err := OpenMapped(snap.NewMapView(payload), l)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := uintptr(unsafe.Pointer(&payload[0])), uintptr(unsafe.Pointer(&payload[len(payload)-1]))
		views := map[string][]uint64{"SA": x.saSamp.words, "ISA": x.isaSamp.words}
		if l == FMP {
			views = map[string][]uint64{"SA": x.saSamp.words, "shortcut": x.isa.has.Words(), "back pointer": x.isa.back.words, "select": x.isa.sel.words}
		}
		for name, words := range views {
			if at := uintptr(unsafe.Pointer(&words[0])); at < lo || at > hi {
				t.Errorf("layout %d: %s samples copied out of the payload", l, name)
			}
		}
	}
}

// TestSpaceSections pins each section of Space on a seeded textgen
// corpus, holds SizeBits to their sum, the two sample sections to
// (⌈log₂ n⌉ + ⌈log₂⌈n/s⌉⌉)/s bits per row plus two words per array —
// the bound of packed SA and ISA arrays — and the ISA section alone to
// 0.35 bits per symbol.
func TestSpaceSections(t *testing.T) {
	docs := textgen.NewCollection(textgen.CollectionOptions{Seed: 1}).GenerateTotal(256 << 10)
	x := Build(docs, Options{})
	sp := x.Space()
	t.Logf("n = %d, s = %d, %d symbols: %+v", x.n, x.s, x.SymbolCount(), sp)
	want := Space{
		Tree:       1812896,
		Marks:      312352,
		SASamples:  246528, // 16 431 values of 15 bits
		ISASamples: 86400,  // 16 431 marker bits and their directory, 4 109 pointers of 15 bits, 257 select samples of 19 bits, the row of n-1
		SepTables:  31744,
		DocTable:   47616,
		Symbols:    41168,
	}
	if sp != want {
		t.Errorf("Space() = %+v, want %+v", sp, want)
	}
	if x.SizeBits() != sp.Total() {
		t.Errorf("SizeBits %d, sections sum to %d", x.SizeBits(), sp.Total())
	}
	if got := sp.Symbols; got != 257*64+int64(len(x.sym.tab))*8+257*32+64 {
		t.Errorf("Symbols section %d does not count C and the symbol table", got)
	}
	bound := float64(widthFor(x.n)+widthFor(saBound(x.n, x.s)))/float64(x.s)*float64(x.n) + 4*64
	if samples := float64(sp.SASamples + sp.ISASamples); samples > bound {
		t.Errorf("samples take %.0f bits, above %.0f", samples, bound)
	}
	if perSym := float64(sp.ISASamples) / float64(x.SymbolCount()); perSym > 0.35 {
		t.Errorf("ISA samples take %.3f bits per symbol, above 0.35", perSym)
	}
	// An fm4 file read back by the v1 codec takes the sections of a
	// fresh build; mapped, its samples are width-32 views, 64 bits per s
	// rows as the int32 arrays were, and the row of n-1.
	var e snap.MapEncoder
	fm4 := Build(docs, Options{Layout: FM4})
	fm4.EncodeMapped(&e)
	data, _ := fm4.AppendBinary(nil)
	y, err := Decode(data, FM4)
	if err != nil {
		t.Fatal(err)
	}
	if got := y.Space(); got.SASamples != sp.SASamples || got.ISASamples != sp.ISASamples {
		t.Errorf("fm4 samples read back take %d+%d bits, want %d+%d", got.SASamples, got.ISASamples, sp.SASamples, sp.ISASamples)
	}
	z, err := OpenMapped(snap.NewMapView(e.Bytes()), FM4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := z.Space().SASamples+z.Space().ISASamples, int64(wordsFor(saBound(x.n, x.s), 32)+wordsFor(isaCount(x.n, x.s), 32)+1)*64; got != want {
		t.Errorf("fm4 samples mapped take %d bits, want %d", got, want)
	}
}
