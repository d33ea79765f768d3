package suffixtree

import (
	"bytes"
	"math/rand"
	"testing"

	"dyncoll/internal/doc"
)

// TestExtractWindows exercises every Extract code path: full documents,
// prefixes, suffixes, interior windows, empty windows, and failures.
func TestExtractWindows(t *testing.T) {
	tr := New()
	data := []byte{10, 20, 30, 40, 50, 60}
	tr.Insert(doc.Doc{ID: 1, Data: data})
	tr.Insert(doc.Doc{ID: 2, Data: []byte{1, 2}})

	for off := 0; off <= len(data); off++ {
		for l := 0; off+l <= len(data); l++ {
			got, ok := tr.Extract(1, off, l)
			if !ok || !bytes.Equal(got, data[off:off+l]) {
				t.Fatalf("Extract(1,%d,%d) = %v, %v", off, l, got, ok)
			}
		}
	}
	if _, ok := tr.Extract(3, 0, 1); ok {
		t.Fatal("Extract of absent doc succeeded")
	}
	tr.Delete(1)
	if _, ok := tr.Extract(1, 0, 1); ok {
		t.Fatal("Extract of deleted doc succeeded")
	}
}

// TestSharedPrefixForest builds many documents sharing long prefixes, the
// worst case for suffix-link chains.
func TestSharedPrefixForest(t *testing.T) {
	tr := New()
	base := bytes.Repeat([]byte{7, 8, 9}, 40)
	for i := 0; i < 30; i++ {
		d := append(append([]byte{}, base...), byte(i%5+1), byte(i%7+1))
		tr.Insert(doc.Doc{ID: uint64(i + 1), Data: d})
	}
	if got := tr.Count(base); got != 30 {
		t.Fatalf("Count(base) = %d, want 30", got)
	}
	// The shared fragment 7,8,9 occurs 40 times per document.
	if got := tr.Count([]byte{7, 8, 9}); got != 30*40 {
		t.Fatalf("Count(789) = %d, want %d", got, 30*40)
	}
	for i := 0; i < 30; i += 2 {
		tr.Delete(uint64(i + 1))
	}
	if got := tr.Count(base); got != 15 {
		t.Fatalf("Count(base) after deletes = %d, want 15", got)
	}
}

// TestByteExtremes uses payload bytes 1 and 255, the boundary values on
// either side of 0x00, which every terminator reads as.
func TestByteExtremes(t *testing.T) {
	tr := New()
	tr.Insert(doc.Doc{ID: 1, Data: []byte{255, 1, 255, 255, 1}})
	tr.Insert(doc.Doc{ID: 2, Data: []byte{1, 255}})
	if got := tr.Count([]byte{255}); got != 4 {
		t.Fatalf("Count(255) = %d, want 4", got)
	}
	if got := tr.Count([]byte{255, 255}); got != 1 {
		t.Fatalf("Count(255,255) = %d, want 1", got)
	}
	if got := tr.Count([]byte{1, 255}); got != 2 {
		t.Fatalf("Count(1,255) = %d, want 2", got)
	}
}

// TestTerminatorIsolation ensures one document's suffixes never match
// into another document across the terminator.
func TestTerminatorIsolation(t *testing.T) {
	tr := New()
	tr.Insert(doc.Doc{ID: 1, Data: []byte{5, 6}})
	tr.Insert(doc.Doc{ID: 2, Data: []byte{7, 8}})
	// "6 7" spans the boundary in concatenation order; must not match.
	if got := tr.Count([]byte{6, 7}); got != 0 {
		t.Fatalf("cross-document match: Count(6,7) = %d", got)
	}
}

// TestManyTinyDocs covers the per-document terminator space (many seqs).
func TestManyTinyDocs(t *testing.T) {
	tr := New()
	for i := 0; i < 2000; i++ {
		tr.Insert(doc.Doc{ID: uint64(i + 1), Data: []byte{byte(i%3 + 1)}})
	}
	if tr.DocCount() != 2000 || tr.Len() != 2000 {
		t.Fatalf("DocCount=%d Len=%d", tr.DocCount(), tr.Len())
	}
	want := 0
	for i := 0; i < 2000; i++ {
		if i%3 == 0 {
			want++
		}
	}
	if got := tr.Count([]byte{1}); got != want {
		t.Fatalf("Count(1) = %d, want %d", got, want)
	}
}

// TestRebuildPreservesEverything drives churn far past several rebuild
// thresholds and exhaustively verifies all live content afterwards.
func TestRebuildPreservesEverything(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(77))
	content := map[uint64][]byte{}
	var ids []uint64
	next := uint64(1)
	for round := 0; round < 40; round++ {
		for i := 0; i < 10; i++ {
			n := rng.Intn(50) + 1
			d := make([]byte, n)
			for j := range d {
				d[j] = byte(rng.Intn(4) + 1)
			}
			tr.Insert(doc.Doc{ID: next, Data: d})
			content[next] = d
			ids = append(ids, next)
			next++
		}
		for i := 0; i < 8 && len(ids) > 0; i++ {
			k := rng.Intn(len(ids))
			id := ids[k]
			ids = append(ids[:k], ids[k+1:]...)
			tr.Delete(id)
			delete(content, id)
		}
	}
	if tr.DocCount() != len(content) {
		t.Fatalf("DocCount = %d, want %d", tr.DocCount(), len(content))
	}
	for id, data := range content {
		got, ok := tr.Extract(id, 0, len(data))
		if !ok || !bytes.Equal(got, data) {
			t.Fatalf("content of %d lost after rebuilds", id)
		}
	}
	// Live docs listing must match exactly.
	live := tr.LiveDocs()
	if len(live) != len(content) {
		t.Fatalf("LiveDocs = %d, want %d", len(live), len(content))
	}
	for _, d := range live {
		if !bytes.Equal(d.Data, content[d.ID]) {
			t.Fatalf("LiveDocs content mismatch for %d", d.ID)
		}
	}
}

// TestDocLenPaths covers present, deleted and absent IDs.
func TestDocLenPaths(t *testing.T) {
	tr := New()
	tr.Insert(doc.Doc{ID: 9, Data: []byte{1, 2, 3}})
	if n, ok := tr.DocLen(9); !ok || n != 3 {
		t.Fatalf("DocLen = %d, %v", n, ok)
	}
	if _, ok := tr.DocLen(10); ok {
		t.Fatal("DocLen of absent doc succeeded")
	}
	tr.Delete(9)
	if _, ok := tr.DocLen(9); ok {
		t.Fatal("DocLen of deleted doc succeeded")
	}
}

// TestSizeBitsGrowsAndShrinks sanity-checks space accounting through a
// rebuild.
func TestSizeBitsGrowsAndShrinks(t *testing.T) {
	tr := New()
	empty := tr.SizeBits()
	var ids []uint64
	for i := 0; i < 50; i++ {
		d := bytes.Repeat([]byte{byte(i%7 + 1)}, 40)
		tr.Insert(doc.Doc{ID: uint64(i + 1), Data: d})
		ids = append(ids, uint64(i+1))
	}
	full := tr.SizeBits()
	if full <= empty {
		t.Fatal("SizeBits did not grow")
	}
	for _, id := range ids {
		tr.Delete(id)
	}
	// All deleted → rebuild leaves an empty tree again.
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.SizeBits() >= full {
		t.Fatal("SizeBits did not shrink after rebuild")
	}
}

// TestPatternAcrossEdgeSplit plants patterns that end exactly at node
// boundaries and mid-edge.
func TestPatternAcrossEdgeSplit(t *testing.T) {
	tr := New()
	tr.Insert(doc.Doc{ID: 1, Data: []byte("abcabcaby")})
	cases := []struct {
		p    string
		want int
	}{
		{"a", 3}, {"ab", 3}, {"abc", 2}, {"abca", 2}, {"abcab", 2},
		{"abcabc", 1}, {"abcaby", 1}, {"aby", 1}, {"y", 1}, {"by", 1},
		{"abd", 0}, {"abcabd", 0}, {"yz", 0},
	}
	for _, c := range cases {
		if got := tr.Count([]byte(c.p)); got != c.want {
			t.Fatalf("Count(%q) = %d, want %d", c.p, got, c.want)
		}
		if got := len(tr.Find([]byte(c.p))); got != c.want {
			t.Fatalf("Find(%q) = %d, want %d", c.p, got, c.want)
		}
	}
}
