package fmindex

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dyncoll/internal/doc"
	"dyncoll/internal/snap"
)

// indexForms returns the three ways an Index comes to exist — built on
// the heap, decoded from the v1 wire form, and viewed over a mapped (v2)
// payload — in each layout, FM4's under "fm4/" and FM's under "fm/",
// since AppendDocs must read all of them alike.
func indexForms(t *testing.T, docs []doc.Doc, s int) map[string]*Index {
	t.Helper()
	forms := make(map[string]*Index)
	for layout, prefix := range map[Layout]string{FMZ: "", FM4: "fm4/", FM: "fm/", FMM: "fmm/"} {
		built := Build(docs, Options{SampleRate: s, Layout: layout})
		wire, err := built.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := Decode(wire, layout)
		if err != nil {
			t.Fatal(err)
		}
		var enc snap.MapEncoder
		built.EncodeMapped(&enc)
		mapped, err := OpenMapped(snap.NewMapView(enc.Bytes()), layout)
		if err != nil {
			t.Fatal(err)
		}
		forms[prefix+"built"], forms[prefix+"decoded"], forms[prefix+"mapped"] = built, decoded, mapped
	}
	return forms
}

// checkAppendDocs compares AppendDocs(idxs) with per-document Extract.
func checkAppendDocs(t *testing.T, x *Index, idxs []int) {
	t.Helper()
	prefix := []doc.Doc{{ID: 999, Data: []byte("kept")}}
	got := x.AppendDocs(idxs, prefix)
	if len(got) != 1+len(idxs) || got[0].ID != 999 || string(got[0].Data) != "kept" {
		t.Fatalf("AppendDocs did not append %d docs after dst's own", len(idxs))
	}
	for i, d := range idxs {
		g := got[1+i]
		want := x.Extract(d, 0, x.DocLen(d))
		if g.ID != x.DocID(d) || !bytes.Equal(g.Data, want) {
			t.Fatalf("doc index %d (request slot %d): got id %d %q, want id %d %q",
				d, i, g.ID, g.Data, x.DocID(d), want)
		}
		if len(g.Data) != cap(g.Data) {
			t.Fatalf("doc index %d: payload cap %d > len %d lets an append overwrite its neighbour",
				d, cap(g.Data), len(g.Data))
		}
	}
}

func TestAppendDocsMatchesExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	fill := func(sigma, n int) []byte {
		data := make([]byte, n)
		for j := range data {
			data[j] = byte(rng.Intn(sigma)) + 1
		}
		return data
	}
	randDoc := func(sigma, maxLen int) []byte { return fill(sigma, rng.Intn(maxLen+1)) }
	cases := map[string][][]byte{
		"none":        {},
		"one-empty":   {{}},
		"all-empty":   {{}, {}, {}},
		"single":      {[]byte("abracadabra")},
		"single-byte": {{0xff}},
		// Byte-identical documents: their separator suffixes tie on every
		// symbol, which is the case sepTargets exists to break.
		"duplicates": {[]byte("abab"), []byte("abab"), {}, []byte("abab"), []byte("ab"), {}, []byte("abab")},
		"unary":      {[]byte("aaaa"), []byte("aa"), []byte("aaaaaaa"), []byte("a")},
	}
	// Documents around and beyond walkSeg, which are split across lanes.
	long := [][]byte{randDoc(3, 40)}
	for _, n := range []int{walkSeg - 1, walkSeg, walkSeg + 1, 5*walkSeg + 7, 20 * walkSeg} {
		long = append(long, fill(5, n), randDoc(200, 30))
	}
	cases["long"] = long
	for i := 0; i < 12; i++ {
		sigma := []int{1, 2, 4, 255}[i%4]
		payloads := make([][]byte, 1+rng.Intn(60))
		for j := range payloads {
			switch rng.Intn(6) {
			case 0:
				payloads[j] = nil
			case 1:
				if j > 0 {
					payloads[j] = payloads[rng.Intn(j)]
					break
				}
				fallthrough
			default:
				payloads[j] = randDoc(sigma, 90)
			}
		}
		cases[fmt.Sprintf("random-%d-sigma%d", i, sigma)] = payloads
	}
	for name, payloads := range cases {
		docs := make([]doc.Doc, len(payloads))
		for i, p := range payloads {
			docs[i] = doc.Doc{ID: uint64(1000 + i), Data: p}
		}
		for _, s := range []int{1, 4, 16} {
			for form, x := range indexForms(t, docs, s) {
				t.Run(fmt.Sprintf("%s/s=%d/%s", name, s, form), func(t *testing.T) {
					all := make([]int, len(docs))
					for i := range all {
						all[i] = i
					}
					checkAppendDocs(t, x, all)
					checkAppendDocs(t, x, nil)
					for round := 0; round < 4; round++ {
						// Any subset, any order, repeats allowed.
						sub := make([]int, 0, len(docs))
						for _, d := range rng.Perm(len(docs)) {
							if rng.Intn(2) == 0 {
								sub = append(sub, d)
							}
						}
						if len(sub) > 0 && rng.Intn(2) == 0 {
							sub = append(sub, sub[0])
						}
						checkAppendDocs(t, x, sub)
					}
				})
			}
		}
	}
}
