package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dyncoll/internal/doc"
	"dyncoll/internal/fmindex"
	"dyncoll/internal/snap"
	"dyncoll/internal/sparsebits"
)

// lifecycleIndexes is every built-in index with its v1 decoder and
// mapped opener, as the facade registers them.
func lifecycleIndexes() map[string]docCodec {
	fm := func(layout fmindex.Layout) docCodec {
		return docCodec{
			opts: Options{Builder: func(docs []doc.Doc) StaticIndex {
				return fmindex.Build(docs, fmindex.Options{SampleRate: 4, Layout: layout})
			}},
			decode: func(data []byte) (StaticIndex, error) { return fmindex.Decode(data, layout) },
			open:   func(mv *snap.MapView) (StaticIndex, error) { return fmindex.OpenMapped(mv, layout) },
		}
	}
	return map[string]docCodec{
		"fmz": fm(fmindex.FMZ),
		"fm4": fm(fmindex.FM4),
		"fm":  fm(fmindex.FM),
		"sa": {
			opts: Options{Builder: saBuilder},
			decode: func(data []byte) (StaticIndex, error) {
				x := &fmindex.SAIndex{}
				return x, x.UnmarshalBinary(data)
			},
			open: func(mv *snap.MapView) (StaticIndex, error) { return fmindex.OpenMappedSA(mv) },
		},
		"csa": {
			opts: Options{Builder: csaBuilder},
			decode: func(data []byte) (StaticIndex, error) {
				x := &fmindex.CSA{}
				return x, x.UnmarshalBinary(data)
			},
			open: func(mv *snap.MapView) (StaticIndex, error) { return fmindex.OpenMappedCSA(mv) },
		},
	}
}

// TestBitmapLifecycle holds every store form — built by a ladder at τ,
// heap-built, v1-decoded and mapped-opened, over each built-in index,
// with and without counting — to one deletion-bitmap lifecycle: no
// bitmap until the first Delete, so SizeBits is the index's alone;
// exactly a Dense after it, ranked when counting, whatever τ is (256 and
// 4096 once got Lemma 3's zero lists); and a Count after random deletes
// that equals a popcount of the live rows over a model.
func TestBitmapLifecycle(t *testing.T) {
	docs := materializeDocs(60, 23)
	for name, codec := range lifecycleIndexes() {
		for _, counting := range []bool{false, true} {
			codec.opts.Counting = counting
			built, err := codec.BuildStore(docs, 0)
			if err != nil {
				t.Fatal(err)
			}
			var v1 snap.Encoder
			codec.EncodeStore(&v1, built)
			decoded, err := codec.DecodeStore(snap.NewDecoder(v1.Bytes()), 0)
			if err != nil {
				t.Fatalf("%s: v1 decode: %v", name, err)
			}
			var meta snap.Encoder
			payload := codec.EncodeMapped(&meta, built)
			mapped, err := codec.OpenMapped(snap.NewDecoder(meta.Bytes()), payload, 0)
			if err != nil {
				t.Fatalf("%s: mapped open: %v", name, err)
			}
			forms := map[string]any{"heap": built, "v1": decoded, "mapped": mapped}
			for _, tau := range []int{6, 256, 4096} {
				opts := codec.opts
				opts.Tau = tau
				forms[fmt.Sprintf("ladder-tau%d", tau)] = ladderStore(opts, docs)
			}
			for form, st := range forms {
				s := st.(*SemiDynamic)
				where := name + "/" + form
				if counting {
					where += "/counting"
				}
				checkLifecycle(t, where, s, docs, counting)
			}
		}
	}
}

func checkLifecycle(t *testing.T, where string, s *SemiDynamic, docs []doc.Doc, counting bool) {
	t.Helper()
	static := s.Index().SizeBits()
	if got := s.SizeBits(); got != static {
		t.Fatalf("%s: %d bits before any delete, the index alone is %d", where, got, static)
	}
	// live[row] is the model: false once the row's document is deleted.
	live := make([]bool, s.idx.SALen())
	for i := range live {
		live[i] = true
	}
	rng := rand.New(rand.NewSource(47))
	for k, di := range rng.Perm(len(docs))[:len(docs)/3] {
		d := s.byID[docs[di].ID]
		for off := 0; off <= s.idx.DocLen(d); off++ {
			live[s.idx.SuffixRank(d, off)] = false
		}
		if _, ok := s.Delete(docs[di].ID); !ok {
			t.Fatalf("%s: Delete(%d) failed", where, docs[di].ID)
		}
		if k == 0 {
			bitmap := sparsebits.NewDense(len(live), counting).SizeBits()
			if got := s.SizeBits() - static; got != bitmap {
				t.Fatalf("%s: the first delete added %d bits, the bitmap is %d", where, got, bitmap)
			}
		}
	}
	for _, d := range docs {
		for _, n := range []int{1, 2, 3} {
			pat := d.Data[:n]
			lo, hi := s.idx.Range(pat)
			want := 0
			for _, l := range live[lo:hi] {
				if l {
					want++
				}
			}
			if got := s.Count(pat); got != want {
				t.Fatalf("%s: Count(%q) = %d, the model's popcount is %d", where, pat, got, want)
			}
		}
	}
}
