package binrel

import (
	"fmt"
	"math/rand"
	"testing"

	"dyncoll/internal/engine"
	"dyncoll/internal/snap"
	"dyncoll/internal/sparsebits"
)

// TestSemiRelBitmapLifecycle holds a relation store — built by a ladder
// at τ, heap-built, v1-decoded and mapped-opened — to the deletion
// state's lifecycle: none until the first Delete, so SizeBits is the
// static encoding's alone; exactly D (a ranked Dense), the D_a (Dense)
// and their live counters after it, whatever τ is (256 and 4096 once got
// Lemma 3's zero lists); and counts after random deletes that equal a
// count of the live pairs in a model.
func TestSemiRelBitmapLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	seen := map[Pair]bool{}
	var pairs []Pair
	// A few hundred pairs per object, so countLabels spans several words
	// of D and ranks through its Fenwick tree.
	const objects, labels = 16, 500
	for len(pairs) < 4000 {
		p := Pair{Object: uint64(rng.Intn(objects)), Label: uint64(rng.Intn(labels))}
		if !seen[p] {
			seen[p] = true
			pairs = append(pairs, p)
		}
	}
	var c pairCodec
	built, _ := c.BuildStore(append([]Pair(nil), pairs...), 0)
	var v1 snap.Encoder
	c.EncodeStore(&v1, built)
	decoded, err := c.DecodeStore(snap.NewDecoder(v1.Bytes()), 0)
	if err != nil {
		t.Fatalf("v1 decode: %v", err)
	}
	var meta snap.Encoder
	payload := c.EncodeMapped(&meta, built)
	mapped, err := c.OpenMapped(snap.NewDecoder(meta.Bytes()), payload, 0)
	if err != nil {
		t.Fatalf("mapped open: %v", err)
	}
	forms := map[string]any{"heap": built, "v1": decoded, "mapped": mapped}
	for _, tau := range []int{6, 256, 4096} {
		src := []engine.Snapshot[Pair]{{
			Count:       len(pairs),
			Weight:      len(pairs),
			Materialize: func(dst []Pair) []Pair { return append(dst, pairs...) },
		}}
		forms[fmt.Sprintf("ladder-tau%d", tau)] = ladderConfig(Options{Tau: tau}).Build(src)
	}
	for form, st := range forms {
		r := st.(*semiRel)
		static := r.s.SizeBits() + int64(len(r.objects))*64 + int64(len(r.labels))*64 + int64(len(r.starts))*32
		if got := r.SizeBits(); got != static {
			t.Fatalf("%s: %d bits before any delete, the static encoding is %d", form, got, static)
		}
		deletion := sparsebits.NewDense(r.s.Len(), true).SizeBits() + int64(len(r.labels))*32
		for a := range r.labels {
			deletion += sparsebits.NewDense(r.s.Count(uint32(a)), false).SizeBits()
		}
		live := map[Pair]bool{}
		for _, p := range pairs {
			live[p] = true
		}
		for k, i := range rng.Perm(len(pairs))[:len(pairs)/3] {
			if _, ok := r.Delete(pairs[i]); !ok {
				t.Fatalf("%s: Delete(%v) failed", form, pairs[i])
			}
			delete(live, pairs[i])
			if got := r.SizeBits() - static; k == 0 && got != deletion {
				t.Fatalf("%s: the first delete added %d bits, the deletion state is %d", form, got, deletion)
			}
		}
		labelsOf, objectsOf := map[uint64]int{}, map[uint64]int{}
		for p := range live {
			labelsOf[p.Object]++
			objectsOf[p.Label]++
		}
		for o := uint64(0); o < objects; o++ {
			if got := r.countLabels(o); got != labelsOf[o] {
				t.Fatalf("%s: countLabels(%d) = %d, the model has %d", form, o, got, labelsOf[o])
			}
		}
		for l := uint64(0); l < labels; l++ {
			if got := r.countObjects(l); got != objectsOf[l] {
				t.Fatalf("%s: countObjects(%d) = %d, the model has %d", form, l, got, objectsOf[l])
			}
		}
	}
}
