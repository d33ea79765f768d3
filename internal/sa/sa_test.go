package sa

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// naiveSA sorts suffixes directly.
func naiveSA(text []byte) []int32 {
	n := len(text)
	sa := make([]int32, n)
	for i := range sa {
		sa[i] = int32(i)
	}
	sort.Slice(sa, func(a, b int) bool {
		return bytes.Compare(text[sa[a]:], text[sa[b]:]) < 0
	})
	return sa
}

func equal32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func randomText(rng *rand.Rand, n, sigma int) []byte {
	t := make([]byte, n)
	for i := range t {
		t[i] = byte(1 + rng.Intn(sigma))
	}
	return t
}

func TestSuffixArrayKnown(t *testing.T) {
	cases := []struct {
		text string
		want []int32
	}{
		{"", nil},
		{"a", []int32{0}},
		{"aa", []int32{1, 0}},
		{"ab", []int32{0, 1}},
		{"ba", []int32{1, 0}},
		{"banana", []int32{5, 3, 1, 0, 4, 2}},
		{"mississippi", []int32{10, 7, 4, 1, 0, 9, 8, 6, 3, 5, 2}},
		{"abracadabra", []int32{10, 7, 0, 3, 5, 8, 1, 4, 6, 9, 2}},
	}
	for _, c := range cases {
		got := SuffixArray([]byte(c.text))
		if !equal32(got, c.want) {
			t.Errorf("SuffixArray(%q) = %v, want %v", c.text, got, c.want)
		}
	}
}

func TestSuffixArrayAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 10, 100, 1000, 5000} {
		for _, sigma := range []int{1, 2, 4, 26, 255} {
			text := randomText(rng, n, sigma)
			got := SuffixArray(text)
			want := naiveSA(text)
			if !equal32(got, want) {
				t.Fatalf("n=%d sigma=%d: SA-IS disagrees with naive\ntext=%q", n, sigma, text)
			}
		}
	}
}

func TestDoublingAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 10, 500, 2000} {
		for _, sigma := range []int{1, 2, 26} {
			text := randomText(rng, n, sigma)
			if !equal32(SuffixArrayDoubling(text), naiveSA(text)) {
				t.Fatalf("n=%d sigma=%d: doubling disagrees with naive", n, sigma)
			}
		}
	}
}

func TestQuickSAISvsDoubling(t *testing.T) {
	f := func(seed int64, nRaw uint16, sigmaRaw uint8) bool {
		n := int(nRaw)%3000 + 1
		sigma := int(sigmaRaw)%255 + 1
		text := randomText(rand.New(rand.NewSource(seed)), n, sigma)
		return equal32(SuffixArray(text), SuffixArrayDoubling(text))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPathologicalTexts(t *testing.T) {
	texts := [][]byte{
		bytes.Repeat([]byte{7}, 4096),                       // unary
		bytes.Repeat([]byte{1, 2}, 2048),                    // period 2
		bytes.Repeat([]byte{1, 1, 2}, 1365),                 // period 3
		append(bytes.Repeat([]byte{9}, 2000), 1),            // run then drop
		append([]byte{1}, bytes.Repeat([]byte{9}, 2000)...), // rise then run
	}
	// Fibonacci string (highly repetitive, stresses LMS recursion).
	fa, fb := []byte("a"), []byte("ab")
	for len(fb) < 4000 {
		fa, fb = fb, append(append([]byte{}, fb...), fa...)
	}
	texts = append(texts, fb)
	for i, text := range texts {
		if !equal32(SuffixArray(text), naiveSA(text)) {
			t.Fatalf("pathological text %d: SA-IS wrong", i)
		}
	}
}

// TestByteTextsAgainstDoubling drives the top level's byte path — the
// text read in place, every byte value an ordinary symbol, the sentinel
// virtual — over the shapes that stress it, against prefix doubling.
// One workspace serves them all, so stale scratch would show.
func TestByteTextsAgainstDoubling(t *testing.T) {
	fa, fb := []byte{0xff}, []byte{0xff, 0x00}
	for len(fb) < 3000 {
		fa, fb = fb, append(slices.Clone(fb), fa...)
	}
	rng := rand.New(rand.NewSource(11))
	docs := make([]byte, 0, 4096) // documents over {1,2,3} ended by 0x00, empty ones included
	for len(docs) < 4000 {
		for k := rng.Intn(12); k > 0; k-- {
			docs = append(docs, byte(1+rng.Intn(3)))
		}
		docs = append(docs, bytes.Repeat([]byte{0}, 1+rng.Intn(4))...)
	}
	extremes := make([]byte, 2500) // only the smallest and largest bytes
	for i := range extremes {
		extremes[i] = byte(rng.Intn(2) * 255)
	}
	texts := map[string][]byte{
		"all 0x00":           make([]byte, 1000),
		"all 0xff":           bytes.Repeat([]byte{0xff}, 1000),
		"single byte":        {0},
		"a^n b":              append(bytes.Repeat([]byte("a"), 2000), 'b'),
		"b^n a":              append(bytes.Repeat([]byte("b"), 2000), 'a'),
		"a b^n":              append([]byte("a"), bytes.Repeat([]byte("b"), 2000)...),
		"fibonacci":          fb,
		"separator runs":     docs,
		"last byte repeated": append(slices.Clone(docs), 0, 0, 0),
		"extremes":           extremes,
		"ends on its max":    append(slices.Clone(extremes), 0xff),
	}
	var ws Workspace
	for name, text := range texts {
		want := SuffixArrayDoubling(text)
		if got := SuffixArray(text); !slices.Equal(got, want) {
			t.Errorf("%s: SuffixArray differs from doubling", name)
		}
		if got := SuffixArrayWS(text, &ws); !slices.Equal(got, want) {
			t.Errorf("%s: SuffixArrayWS differs from doubling", name)
		}
	}
}

// FuzzSuffixArray checks SA-IS against prefix doubling on arbitrary
// bytes.
func FuzzSuffixArray(f *testing.F) {
	f.Add([]byte("mississippi"))
	f.Add([]byte{0, 0, 1, 0, 0, 1, 0})
	f.Add([]byte{255, 0, 255, 0, 255})
	f.Fuzz(func(t *testing.T, text []byte) {
		if len(text) > 4096 {
			text = text[:4096]
		}
		if got, want := SuffixArray(text), SuffixArrayDoubling(text); !slices.Equal(got, want) {
			t.Fatalf("SuffixArray(%v) = %v, doubling says %v", text, got, want)
		}
	})
}

// TestWorkspaceReuse pins what the workspace is for: once it has built a
// text, building one no larger — at any recursion depth — allocates
// nothing. Period-3 text recurses; the random one does not.
func TestWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	texts := [][]byte{
		randomText(rng, 1<<14, 64),
		bytes.Repeat([]byte{1, 1, 2}, 5000),
		randomText(rng, 1<<13, 2),
	}
	for i, text := range texts {
		var ws Workspace
		want := SuffixArray(text)
		if got := SuffixArrayWS(text, &ws); !slices.Equal(got, want) {
			t.Fatalf("text %d: workspace build differs from SuffixArray", i)
		}
		if avg := testing.AllocsPerRun(5, func() { SuffixArrayWS(text, &ws) }); avg != 0 {
			t.Errorf("text %d: rebuild through a warm workspace allocates %v times, want 0", i, avg)
		}
		half := text[:len(text)/2]
		if avg := testing.AllocsPerRun(5, func() { SuffixArrayWS(half, &ws) }); avg != 0 {
			t.Errorf("text %d: smaller build through a warm workspace allocates %v times, want 0", i, avg)
		}
		if got := SuffixArrayWS(half, &ws); !slices.Equal(got, SuffixArray(half)) {
			t.Fatalf("text %d: smaller build through a used workspace is wrong", i)
		}
	}
}

func BenchmarkSAIS(b *testing.B) {
	text := randomText(rand.New(rand.NewSource(6)), 1<<20, 64)
	b.Run("fresh", func(b *testing.B) {
		b.SetBytes(int64(len(text)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			SuffixArray(text)
		}
	})
	b.Run("workspace", func(b *testing.B) {
		var ws Workspace
		SuffixArrayWS(text, &ws)
		b.SetBytes(int64(len(text)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			SuffixArrayWS(text, &ws)
		}
		// Off the clock: AllocsPerRun builds twice more, which at the ten
		// or so iterations this benchmark gets read as the warm path
		// being 15–20 % slower than fresh allocation.
		b.StopTimer()
		if a := testing.AllocsPerRun(1, func() { SuffixArrayWS(text, &ws) }); a != 0 {
			b.Fatalf("warm workspace build allocates %v times, want 0", a)
		}
	})
}

func BenchmarkDoubling(b *testing.B) {
	text := randomText(rand.New(rand.NewSource(7)), 1<<16, 64)
	b.SetBytes(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SuffixArrayDoubling(text)
	}
}

// naiveMultiSA sorts the suffixes of a collection text in multi-string
// order: each compares through its own terminator, terminators by
// position.
func naiveMultiSA(text []byte) []int32 {
	sa := make([]int32, len(text))
	for i := range sa {
		sa[i] = int32(i)
	}
	tail := func(p int32) []byte { return text[p : int(p)+bytes.IndexByte(text[p:], 0)] }
	sort.Slice(sa, func(a, b int) bool {
		if c := bytes.Compare(tail(sa[a]), tail(sa[b])); c != 0 {
			// A tail that is a proper prefix of the other meets its
			// terminator first, and a terminator is the smallest byte.
			return c < 0
		}
		return sa[a] < sa[b] // equal tails: the earlier terminator first
	})
	return sa
}

func TestMultiSuffixArray(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var ws Workspace
	for it := 0; it < 2000; it++ {
		var text []byte
		docs := 1 + rng.Intn(8)
		pool := [][]byte{nil, []byte("a"), []byte("ab"), []byte("abab")}
		for range docs {
			var d []byte
			switch rng.Intn(3) {
			case 0: // a repeat of an earlier shape: equal tails across documents
				d = pool[rng.Intn(len(pool))]
			default:
				n := rng.Intn(40)
				if it%10 == 0 { // long enough to recurse
					n = rng.Intn(400)
				}
				d = randomText(rng, n, 1+rng.Intn(4))
				pool = append(pool, d)
			}
			text = append(append(text, d...), 0)
		}
		want := naiveMultiSA(text)
		if got := MultiSuffixArrayWS(text, &ws); !slices.Equal(got, want) {
			t.Fatalf("text %q:\n got %v\nwant %v", text, got, want)
		}
		// The plain order still comes out of the same workspace.
		if got := SuffixArrayWS(text, &ws); !slices.Equal(got, naiveSA(text)) {
			t.Fatalf("plain order of %q changed", text)
		}
	}
}
