package core

import (
	"fmt"
	"math"
	"testing"

	"dyncoll/internal/doc"
)

// strictIndex is a custom index whose Extract does not clamp: it fails
// the test on any request outside the payload.
type strictIndex struct {
	StaticIndex
	t *testing.T
}

func (x strictIndex) Extract(d, off, length int) []byte {
	if off < 0 || length < 0 || length > x.DocLen(d)-off {
		x.t.Errorf("index asked for Extract(%d, %d, %d) of a %d-byte document", d, off, length, x.DocLen(d))
		return nil
	}
	return x.StaticIndex.Extract(d, off, length)
}

// TestExtractClampAcrossParts holds every kind of part to one clamp: the
// C0 suffix tree, a parked payload, a semi-dynamic store over each
// built-in index, and over a custom index that does not clamp, return
// the same bytes for the same request — extreme ints included — and
// nothing panics or overflows. A document reads the same whichever part holds it.
func TestExtractClampAcrossParts(t *testing.T) {
	payload := []byte("hello")
	docs := []doc.Doc{{ID: 7, Data: payload}, {ID: 8, Data: []byte("world!")}}
	c0 := newC0()
	for _, d := range docs {
		c0.Insert(d)
	}
	parts := map[string]Part{"c0": c0, "parked": newParked(docs)}
	for name, build := range map[string]Builder{"fm": fmBuilder, "sa": saBuilder, "csa": csaBuilder} {
		parts[name] = NewSemiDynamic(build(docs), false)
	}
	parts["strict"] = NewSemiDynamic(strictIndex{fmBuilder(docs), t}, false)
	dl := len(payload)
	for _, off := range []int{math.MinInt, -3, 0, dl, dl + 1, math.MaxInt} {
		for _, length := range []int{math.MinInt, -1, 0, 5, math.MaxInt} {
			lo := min(max(off, 0), dl)
			want := string(payload[lo : lo+min(max(length, 0), dl-lo)])
			for name, p := range parts {
				t.Run(fmt.Sprintf("%s/off=%d/len=%d", name, off, length), func(t *testing.T) {
					got, ok := p.Extract(7, off, length)
					if !ok || string(got) != want {
						t.Fatalf("Extract(7, %d, %d) = %q, %v; want %q", off, length, got, ok, want)
					}
				})
			}
		}
	}
}
