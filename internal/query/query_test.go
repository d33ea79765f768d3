package query

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"testing"

	"dyncoll/internal/core"
)

// fakeSource is a naive reference Source over an in-memory doc map —
// brute-force substring scans, no index — so executor behavior can be
// checked without dragging the whole engine in. It is its own single
// part.
type fakeSource struct {
	ids  []uint64 // insertion order
	docs map[uint64][]byte
}

func newFakeSource(docs map[uint64][]byte) *fakeSource {
	f := &fakeSource{docs: docs}
	for id := range docs {
		f.ids = append(f.ids, id)
	}
	slices.Sort(f.ids)
	return f
}

func (f *fakeSource) Parts(fn func(n int, part func(int) core.Part)) {
	fn(1, func(int) core.Part { return f })
}

func (f *fakeSource) FindFunc(pattern []byte, fn func(core.Occurrence) bool) {
	for _, id := range f.ids {
		d := f.docs[id]
		if len(pattern) == 0 {
			for off := range d {
				if !fn(core.Occurrence{DocID: id, Off: off}) {
					return
				}
			}
			continue
		}
		for off := 0; off+len(pattern) <= len(d); off++ {
			if bytes.Equal(d[off:off+len(pattern)], pattern) {
				if !fn(core.Occurrence{DocID: id, Off: off}) {
					return
				}
			}
		}
	}
}

func (f *fakeSource) FindGroupedFunc(pattern []byte, fn func(core.Occurrence) bool) {
	f.FindFunc(pattern, fn) // already grouped: per-doc, offsets ascending
}

func (f *fakeSource) Count(pattern []byte) int {
	n := 0
	f.FindFunc(pattern, func(core.Occurrence) bool { n++; return true })
	return n
}

func (f *fakeSource) Extract(id uint64, off, length int) ([]byte, bool) {
	d, ok := f.docs[id]
	if !ok || off < 0 || off > len(d) {
		return nil, false
	}
	return d[off : off+min(length, len(d)-off)], true
}

func (f *fakeSource) DocLen(id uint64) (int, bool) {
	d, ok := f.docs[id]
	return len(d), ok
}

func (f *fakeSource) LiveKeys() []uint64 { return slices.Clone(f.ids) }
func (f *fakeSource) LiveWeight() int {
	n := 0
	for _, d := range f.docs {
		n += len(d)
	}
	return n
}

// collect runs p against src and returns the emitted matches.
func collect(src Source, p *Plan) []Match {
	var out []Match
	Over(src).Execute(p, func(m Match) bool {
		out = append(out, m)
		return true
	})
	return out
}

func TestCompileErrors(t *testing.T) {
	for _, spec := range []Spec{
		{Pattern: "a", K: -1},
		{Pattern: "a(", Regex: true},
		{Pattern: "a[", Regex: true},
	} {
		if _, err := Compile(spec); !errors.Is(err, ErrBadPlan) {
			t.Errorf("Compile(%+v) = %v, want ErrBadPlan", spec, err)
		}
	}
	if _, err := Compile(Spec{Pattern: "ab", K: 3, Ranked: true}); err != nil {
		t.Fatalf("Compile: %v", err)
	}
}

func TestPatternBytes(t *testing.T) {
	if got := (Spec{Pattern: "abc"}).PatternBytes(); !bytes.Equal(got, []byte("abc")) {
		t.Errorf("PatternBytes = %q", got)
	}
	// PatternB wins over Pattern.
	s := Spec{Pattern: "abc", PatternB: []byte{0xff, 0x01}}
	if got := s.PatternBytes(); !bytes.Equal(got, []byte{0xff, 0x01}) {
		t.Errorf("PatternBytes = %q", got)
	}
}

// TestLiteralGroups pins the required-literal analysis: for each
// expression, the expected conjunction-of-disjunctions (group order and
// in-group order are implementation details, so comparisons sort).
func TestLiteralGroups(t *testing.T) {
	cases := []struct {
		expr string
		want [][]string // nil = scan fallback
	}{
		{`abc`, [][]string{{"abc"}}},
		{`abc.*def`, [][]string{{"abc"}, {"def"}}},
		{`abc|def`, [][]string{{"abc", "def"}}},
		{`(abc|def)xyz`, [][]string{{"abc", "def"}, {"xyz"}}},
		{`a+`, [][]string{{"a"}}},
		{`(abc)+`, [][]string{{"abc"}}},
		{`abc{2,}`, [][]string{{"ab"}, {"c"}, {"c"}}}, // Simplify: ab·c·c+
		{`[ab]c`, [][]string{{"a", "b"}, {"c"}}},
		{`a*`, nil},                 // may match empty
		{`.*`, nil},                 // any text
		{`a|b*`, nil},               // one branch may match empty
		{`(?i)abc`, nil},            // case fold: many byte strings
		{`[a-z]`, nil},              // class too wide
		{`^$`, nil},                 // anchors only
		{`\d+x`, [][]string{{"x"}}}, // \d: 10 alternatives > cap, dropped
		{`[01]+x`, [][]string{{"0", "1"}, {"x"}}},
	}
	for _, c := range cases {
		p, err := Compile(Spec{Pattern: c.expr, Regex: true})
		if err != nil {
			t.Fatalf("Compile(%q): %v", c.expr, err)
		}
		var got [][]string
		for _, g := range p.LiteralGroups() {
			var alts []string
			for _, lit := range g {
				alts = append(alts, string(lit))
			}
			slices.Sort(alts)
			got = append(got, alts)
		}
		want := c.want
		for _, g := range want {
			slices.Sort(g)
		}
		sortKey := func(g []string) string { return fmt.Sprint(g) }
		slices.SortFunc(got, func(a, b []string) int { return bytes.Compare([]byte(sortKey(a)), []byte(sortKey(b))) })
		slices.SortFunc(want, func(a, b []string) int { return bytes.Compare([]byte(sortKey(a)), []byte(sortKey(b))) })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("literalGroups(%q) = %v, want %v", c.expr, got, want)
		}
		if (len(c.want) == 0) != p.ScanFallback() {
			t.Errorf("ScanFallback(%q) = %v, want %v", c.expr, p.ScanFallback(), len(c.want) == 0)
		}
	}
}

// TestLiteralGroupsRequired is the soundness property the fuzz test
// also asserts: every string matching the regex contains at least one
// literal of every group.
func TestLiteralGroupsRequired(t *testing.T) {
	exprs := []string{
		`abc.*def`, `(foo|bar)baz`, `a[xy]b`, `(ab)+c`, `x{3,5}y`,
		`hello|wor.d`, `a.b.c`, `[01]{2}z`,
	}
	inputs := []string{
		"abcdef", "fooXbaz", "barbaz", "axbayb", "ababc", "xxxy", "xxxxxy",
		"hello world", "aXbYc", "0101z", "01z", "abc def abc", "zzzz",
	}
	for _, expr := range exprs {
		p, err := Compile(Spec{Pattern: expr, Regex: true})
		if err != nil {
			t.Fatalf("Compile(%q): %v", expr, err)
		}
		re := regexp.MustCompile(expr)
		for _, in := range inputs {
			if !re.MatchString(in) {
				continue
			}
			for _, g := range p.LiteralGroups() {
				found := false
				for _, lit := range g {
					if bytes.Contains([]byte(in), lit) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("%q matches %q but contains no literal of group %q", in, expr, g)
				}
			}
		}
	}
}

func TestScoreRange(t *testing.T) {
	if Score(100, 0, 0) != 0 {
		t.Error("zero matches must score zero")
	}
	for _, c := range []struct{ dl, m, off int }{
		{1, 1, 0}, {100, 5, 10}, {1 << 20, 1000, 1 << 19}, {64, countCap * 10, 63},
	} {
		s := Score(c.dl, c.m, c.off)
		if s <= 0 || s > 1 {
			t.Errorf("Score(%d,%d,%d) = %v out of (0,1]", c.dl, c.m, c.off, s)
		}
	}
	// More matches never score lower, all else equal.
	if Score(100, 2, 5) <= Score(100, 1, 5) {
		t.Error("match count should increase score")
	}
	// Earlier first match never scores lower, all else equal.
	if Score(100, 3, 0) <= Score(100, 3, 50) {
		t.Error("earlier match should increase score")
	}
	// Shorter doc never scores lower, all else equal.
	if Score(100, 3, 5) <= Score(100000, 3, 5) {
		t.Error("shorter doc should increase score")
	}
}

// TestTopK compares the bounded heap against sort-everything for random
// inputs, including duplicate scores (the doc-asc tiebreak).
func TestTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		k := rng.Intn(20)
		all := make([]Match, n)
		for i := range all {
			all[i] = Match{Doc: uint64(rng.Intn(50)), Score: float64(rng.Intn(8)) / 8}
		}
		top := NewTopK(k)
		for _, m := range all {
			top.Add(m)
		}
		got := top.Sorted()

		want := slices.Clone(all)
		slices.SortStableFunc(want, func(a, b Match) int {
			if less(a, b) {
				return -1
			}
			if less(b, a) {
				return 1
			}
			return 0
		})
		if k > 0 && len(want) > k {
			want = want[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d matches, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].Score != want[i].Score {
				t.Fatalf("trial %d pos %d: score %v, want %v", trial, i, got[i].Score, want[i].Score)
			}
		}
	}
}

// TestMergeRanked checks the k-way merge against flatten-and-sort.
func TestMergeRanked(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		nl := 1 + rng.Intn(5)
		k := rng.Intn(15)
		var lists [][]Match
		var all []Match
		doc := uint64(0)
		for i := 0; i < nl; i++ {
			var l []Match
			for j := rng.Intn(10); j > 0; j-- {
				l = append(l, Match{Doc: doc, Score: float64(rng.Intn(10)) / 10})
				doc++
			}
			slices.SortFunc(l, func(a, b Match) int {
				if less(a, b) {
					return -1
				}
				return 1
			})
			lists = append(lists, l)
			all = append(all, l...)
		}
		var got []Match
		MergeRanked(lists, k, func(m Match) bool { got = append(got, m); return true })

		slices.SortFunc(all, func(a, b Match) int {
			if less(a, b) {
				return -1
			}
			if less(b, a) {
				return 1
			}
			return 0
		})
		want := all
		if k > 0 && len(want) > k {
			want = want[:k]
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: merge = %v, want %v", trial, got, want)
		}
	}
}

// TestExecExact checks the streaming and ranked exact paths over the
// fake source.
func TestExecExact(t *testing.T) {
	src := newFakeSource(map[uint64][]byte{
		1: []byte("banana"),        // "an" ×2, first at 1
		2: []byte("an an an an a"), // "an" ×4, first at 0
		3: []byte("nothing here"),
		4: []byte("ancient"), // "an" ×1 at 0
	})

	p, err := Compile(Spec{Pattern: "an"})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(src, p)
	if len(got) != 7 {
		t.Fatalf("streaming: %d matches, want 7", len(got))
	}
	for _, m := range got {
		if m.Len != 2 || m.Score != 0 {
			t.Fatalf("streaming match %+v: want Len=2 Score=0", m)
		}
	}

	// k-bound.
	p, _ = Compile(Spec{Pattern: "an", K: 3})
	if got := collect(src, p); len(got) != 3 {
		t.Fatalf("limited: %d matches, want 3", len(got))
	}

	// Ranked: doc 2 (4 matches, offset 0, shortest-ish) must beat doc 1
	// (2 matches at offset 1); every matching doc appears once.
	p, _ = Compile(Spec{Pattern: "an", Ranked: true, K: 10})
	ranked := collect(src, p)
	if len(ranked) != 3 {
		t.Fatalf("ranked: %d docs, want 3", len(ranked))
	}
	if ranked[0].Doc != 2 {
		t.Errorf("ranked[0].Doc = %d, want 2", ranked[0].Doc)
	}
	for i := 1; i < len(ranked); i++ {
		if less(ranked[i], ranked[i-1]) {
			t.Errorf("ranked output out of order at %d: %v after %v", i, ranked[i], ranked[i-1])
		}
	}

	// k=1 keeps only the best.
	p, _ = Compile(Spec{Pattern: "an", Ranked: true, K: 1})
	if got := collect(src, p); len(got) != 1 || got[0].Doc != 2 {
		t.Errorf("ranked k=1 = %v, want doc 2 only", got)
	}
}

// TestUnion runs plans over three disjoint sources: the union's answer
// is one source's answer over all their documents, with k applied to
// the merged stream, not per source.
func TestUnion(t *testing.T) {
	docs := []map[uint64][]byte{
		{1: []byte("banana"), 2: []byte("an an an an a")},
		{3: []byte("nothing here")},
		{4: []byte("ancient"), 5: []byte("anan")},
	}
	all := map[uint64][]byte{}
	var srcs []Source
	for _, d := range docs {
		srcs = append(srcs, newFakeSource(d))
		for id, b := range d {
			all[id] = b
		}
	}
	for _, spec := range []Spec{
		{Pattern: "an"}, {Pattern: "an", K: 3}, {Pattern: "an", Ranked: true}, {Pattern: "an", Ranked: true, K: 2},
	} {
		p, err := Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		var got []Match
		Union(p, len(srcs), func(i int, emit func(Match) bool) { Over(srcs[i]).Execute(p, emit) },
			func(m Match) bool { got = append(got, m); return true })
		want := collect(newFakeSource(all), p)
		if !spec.Ranked {
			if spec.K > 0 {
				if len(got) != spec.K {
					t.Errorf("%+v: %d matches, want %d", spec, len(got), spec.K)
				}
				continue
			}
			sortByDoc := func(a, b Match) int { return int(a.Doc) - int(b.Doc) }
			slices.SortStableFunc(got, sortByDoc)
			slices.SortStableFunc(want, sortByDoc)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%+v: union = %v, want %v", spec, got, want)
		}
	}
}

// TestExecRegex checks the regex paths — filtered and scan-fallback —
// against direct regexp evaluation.
func TestExecRegex(t *testing.T) {
	docs := map[uint64][]byte{
		10: []byte("the quick brown fox"),
		11: []byte("jumped over the lazy dog"),
		12: []byte("quick quack quock"),
		13: []byte("xxxxxxxxxxxxxxxxxxxx"),
	}
	src := newFakeSource(docs)
	for _, expr := range []string{
		`qu.ck`,   // literal-filtered
		`the|dog`, // alternation group
		`q.*k`,    // literal "q" and "k" groups
		`[a-z]+`,  // scan fallback (wide class)
		`^the`,    // anchored: doc-boundary semantics
		`x{5}`,
	} {
		re := regexp.MustCompile(expr)
		var want []Match
		for _, id := range src.ids {
			for _, loc := range re.FindAllIndex(docs[id], -1) {
				want = append(want, Match{Doc: id, Off: loc[0], Len: loc[1] - loc[0]})
			}
		}
		p, err := Compile(Spec{Pattern: expr, Regex: true})
		if err != nil {
			t.Fatalf("Compile(%q): %v", expr, err)
		}
		got := collect(src, p)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%q: got %v, want %v (scan=%v)", expr, got, want, p.ScanFallback())
		}
	}

	// Ranked regex: every matching doc exactly once, best first.
	p, _ := Compile(Spec{Pattern: `qu.ck`, Regex: true, Ranked: true, K: 10})
	ranked := collect(src, p)
	if len(ranked) != 2 {
		t.Fatalf("ranked regex: %d docs, want 2", len(ranked))
	}
	if ranked[0].Doc != 12 { // 2 matches at offset 0 beats 1 match at offset 4
		t.Errorf("ranked[0].Doc = %d, want 12", ranked[0].Doc)
	}
}

// TestExecRegexNoMatchGroup exercises the zero-total early exit: a
// required literal absent from the corpus proves no match exists.
func TestExecRegexNoMatchGroup(t *testing.T) {
	src := newFakeSource(map[uint64][]byte{1: []byte("aaa bbb ccc")})
	p, err := Compile(Spec{Pattern: `zzz.*aaa`, Regex: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(src, p); len(got) != 0 {
		t.Errorf("got %v, want none", got)
	}
}
