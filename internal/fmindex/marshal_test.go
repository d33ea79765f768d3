package fmindex

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dyncoll/internal/doc"
	"dyncoll/internal/sa"
	"dyncoll/internal/snap"
)

// marshalable is the snapshot fast-path contract all three built-in
// indexes implement.
type marshalable interface {
	AppendBinary(buf []byte) ([]byte, error)
}

func testDocs(n int, rng *rand.Rand) []doc.Doc {
	docs := make([]doc.Doc, n)
	for i := range docs {
		data := make([]byte, rng.Intn(40)+1)
		for j := range data {
			data[j] = byte(rng.Intn(4)) + 'a'
		}
		docs[i] = doc.Doc{ID: uint64(i + 1), Data: data}
	}
	return docs
}

// TestMarshalRoundTrip serializes each index family and checks the
// reloaded index answers Range/Locate/Extract/SuffixRank identically.
func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	docs := testDocs(30, rng)
	patterns := [][]byte{[]byte("a"), []byte("ab"), []byte("abc"), []byte("dd"), []byte("zzz"), {}}

	cases := []struct {
		name string
		x    interface {
			marshalable
			SALen() int
			DocCount() int
			DocID(int) uint64
			DocLen(int) int
			Range([]byte) (int, int)
			Locate(int) (int, int)
			SuffixRank(int, int) int
			Extract(int, int, int) []byte
		}
		fresh func(data []byte) (any, error)
	}{
		{"fmp", Build(docs, Options{SampleRate: 4}), func(data []byte) (any, error) {
			return Decode(data, FMP)
		}},
		{"fmz", Build(docs, Options{SampleRate: 4, Layout: FMZ}), func(data []byte) (any, error) {
			return Decode(data, FMZ)
		}},
		{"fm4", Build(docs, Options{SampleRate: 4, Layout: FM4}), func(data []byte) (any, error) {
			return Decode(data, FM4)
		}},
		{"fm", Build(docs, Options{SampleRate: 4, Layout: FM}), func(data []byte) (any, error) {
			return Decode(data, FM)
		}},
		{"sa", BuildSA(docs), func(data []byte) (any, error) {
			y := &SAIndex{}
			return y, y.UnmarshalBinary(data)
		}},
		{"csa", BuildCSA(docs, Options{SampleRate: 4}), func(data []byte) (any, error) {
			y := &CSA{}
			return y, y.UnmarshalBinary(data)
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, err := tc.x.AppendBinary(nil)
			if err != nil {
				t.Fatalf("AppendBinary: %v", err)
			}
			yAny, err := tc.fresh(data)
			if err != nil {
				t.Fatalf("UnmarshalBinary: %v", err)
			}
			y := yAny.(interface {
				SALen() int
				DocCount() int
				DocID(int) uint64
				DocLen(int) int
				Range([]byte) (int, int)
				Locate(int) (int, int)
				SuffixRank(int, int) int
				Extract(int, int, int) []byte
			})
			if y.SALen() != tc.x.SALen() || y.DocCount() != tc.x.DocCount() {
				t.Fatalf("shape mismatch: %d/%d rows, %d/%d docs",
					y.SALen(), tc.x.SALen(), y.DocCount(), tc.x.DocCount())
			}
			for i := 0; i < tc.x.DocCount(); i++ {
				if y.DocID(i) != tc.x.DocID(i) || y.DocLen(i) != tc.x.DocLen(i) {
					t.Fatalf("doc %d mismatch", i)
				}
				if got, want := y.Extract(i, 0, y.DocLen(i)), tc.x.Extract(i, 0, tc.x.DocLen(i)); !bytes.Equal(got, want) {
					t.Fatalf("doc %d extract %q != %q", i, got, want)
				}
			}
			for _, p := range patterns {
				lo1, hi1 := tc.x.Range(p)
				lo2, hi2 := y.Range(p)
				if lo1 != lo2 || hi1 != hi2 {
					t.Fatalf("Range(%q) = [%d,%d) != [%d,%d)", p, lo2, hi2, lo1, hi1)
				}
			}
			for row := 0; row < tc.x.SALen(); row += 7 {
				d1, o1 := tc.x.Locate(row)
				d2, o2 := y.Locate(row)
				if d1 != d2 || o1 != o2 {
					t.Fatalf("Locate(%d) = (%d,%d) != (%d,%d)", row, d2, o2, d1, o1)
				}
				if tc.x.SuffixRank(d1, o1) != y.SuffixRank(d1, o1) {
					t.Fatalf("SuffixRank(%d,%d) mismatch", d1, o1)
				}
			}
		})
	}
}

// decodeFM returns Decode for layout l with its index dropped.
func decodeFM(l Layout) func([]byte) error {
	return func(p []byte) error {
		_, err := Decode(p, l)
		return err
	}
}

// TestMarshalEmpty round-trips indexes built over zero documents.
func TestMarshalEmpty(t *testing.T) {
	for _, c := range []struct {
		x      marshalable
		decode func([]byte) error
	}{
		{Build(nil, Options{}), decodeFM(FMP)},
		{Build(nil, Options{Layout: FMZ}), decodeFM(FMZ)},
		{Build(nil, Options{Layout: FM4}), decodeFM(FM4)},
		{Build(nil, Options{Layout: FM}), decodeFM(FM)},
		{BuildSA(nil), new(SAIndex).UnmarshalBinary},
		{BuildCSA(nil, Options{}), new(CSA).UnmarshalBinary},
	} {
		data, err := c.x.AppendBinary(nil)
		if err != nil {
			t.Fatalf("empty AppendBinary: %v", err)
		}
		if err2 := c.decode(data); err2 != nil {
			t.Fatalf("empty UnmarshalBinary: %v", err2)
		}
	}
}

// TestMarshalCorrupt mutates every byte position of a small encoded
// index and checks decode never panics — it either errors with
// ErrBadSnapshot or yields some index.
func TestMarshalCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	docs := testDocs(6, rng)
	for _, c := range []struct {
		x      marshalable
		decode func([]byte) error
	}{
		{Build(docs, Options{SampleRate: 4}), decodeFM(FMP)},
		{Build(docs, Options{SampleRate: 4, Layout: FMZ}), decodeFM(FMZ)},
		{Build(docs, Options{SampleRate: 4, Layout: FM4}), decodeFM(FM4)},
		{Build(docs, Options{SampleRate: 4, Layout: FM}), decodeFM(FM)},
		{BuildSA(docs), func(p []byte) error { return new(SAIndex).UnmarshalBinary(p) }},
		{BuildCSA(docs, Options{SampleRate: 4}), func(p []byte) error { return new(CSA).UnmarshalBinary(p) }},
	} {
		data, err := c.x.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		decode := c.decode
		// Truncations.
		for cut := 0; cut < len(data); cut += 11 {
			if err := decode(data[:cut]); err == nil {
				t.Fatalf("truncation at %d decoded cleanly", cut)
			}
		}
		// Single-byte mutations (panic = test failure).
		for pos := 0; pos < len(data); pos++ {
			mut := append([]byte(nil), data...)
			mut[pos] ^= 0x5b
			_ = decode(mut)
		}
		_ = snap.ErrBadSnapshot
	}
}

// TestBuildSeparatorTargetsUnchanged guards the builder's separator
// bookkeeping, which reads the rows of documents' separators off SA rows
// 0 … DocCount-1 instead of filling an n-entry inverse suffix array.
// The digests are the AppendBinary output of the inverse-array builder
// on this file's fixture, over the binary tree whose bytes the "fm"
// index keeps; the reference below is that builder's rule,
// run on collections with empty and byte-identical documents.
func TestBuildSeparatorTargetsUnchanged(t *testing.T) {
	fixture := testDocs(30, rand.New(rand.NewSource(7)))
	for s, want := range map[int]string{
		4:  "76c8cbfd6c77644ddcac697d1f848d5e61eca5ecca767f2c095c886865ddd610",
		16: "ccb95be84090166a49c3af48725ca8fb6dcf52b82dcb2c66351cb9fd44799ab7",
	} {
		wire, err := Build(fixture, Options{SampleRate: s, Layout: FM}).AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(wire)); got != want {
			t.Errorf("s=%d: AppendBinary digest %s, want %s", s, got, want)
		}
	}

	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 50; round++ {
		docs := testDocs(1+rng.Intn(40), rng)
		for i := range docs {
			switch rng.Intn(5) {
			case 0:
				docs[i].Data = nil
			case 1:
				docs[i].Data = docs[rng.Intn(i+1)].Data
			}
		}
		var text []byte
		for _, d := range docs {
			text = append(append(text, d.Data...), Sep)
		}
		suff := sa.SuffixArray(text)
		inv := make([]int32, len(text))
		for row, p := range suff {
			inv[p] = int32(row)
		}
		var rows, targets []int32
		for row, p := range suff {
			prev := (int(p) + len(text) - 1) % len(text)
			if text[prev] == Sep {
				rows = append(rows, int32(row))
				targets = append(targets, inv[prev])
			}
		}
		x := Build(docs, Options{})
		if !slices.Equal(x.sepRows, rows) || !slices.Equal(x.sepTargets, targets) {
			t.Fatalf("round %d: separator rows %v → %v, want %v → %v", round, x.sepRows, x.sepTargets, rows, targets)
		}
	}
}
