package dyncoll

import (
	"bytes"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dyncoll/internal/textgen"
)

// groupWeight mirrors the engine's G at τ = 2 for a shard of n
// symbols: consecutive over-C0 batches gather in one open top until it
// weighs max(192 KiB, n/(4τ)), n counted after the batch that fills it.
func groupWeight(n int) int { return max(192<<10, n/8) }

// top is a predicted top: its live weight and the G it closed at, 0
// for the open top a shard still holds when the ingest ends.
type top struct{ weight, g int }

// groupedTops predicts, sorted by weight, the tops that over-C0 batches
// ingested in order leave once WaitIdle has closed the last open top:
// per shard, a batch's part joins the shard's open top, which closes as
// soon as it weighs groupWeight of the shard's size. It holds when
// nothing was deleted and every part is over C0 and a single chunk,
// which a τ of 2 (top capacity 2n) guarantees.
func groupedTops(batches [][]Document, shards int) []top {
	open := make([]int, max(shards, 1))
	size := make([]int, len(open))
	var tops []top
	for _, b := range batches {
		part := make([]int, len(open))
		for _, d := range b {
			s := 0
			if shards > 0 {
				s = shardOf(d.ID, shards)
			}
			part[s] += len(d.Data)
		}
		for s, w := range part {
			if w == 0 {
				continue // the shard gets no InsertBatch call
			}
			size[s] += w
			g := groupWeight(size[s])
			if open[s] += w; open[s] >= g {
				tops = append(tops, top{open[s], g})
				open[s] = 0
			}
		}
	}
	for _, w := range open {
		if w > 0 {
			tops = append(tops, top{w, 0})
		}
	}
	slices.SortFunc(tops, func(x, y top) int { return cmp.Compare(x.weight, y.weight) })
	return tops
}

// weights lists the weights of tops, in order.
func weights(tops []top) []int {
	out := make([]int, len(tops))
	for i, tp := range tops {
		out[i] = tp.weight
	}
	return out
}

// sortedTops returns c's top weights, sorted.
func sortedTops(c *Collection) []int {
	return slices.Sorted(slices.Values(c.Stats().TopSizes))
}

// TestBackgroundIngestBytesMatchSync ingests a stream of over-C0
// batches with builds in the background, then waits for them, and
// requires the same files, byte for byte, as the same ingest with
// synchronous rebuilds. Parked tops build on as many cores as there
// are and may finish in any order, but they install in launch order,
// so the ladder — and with it every saved byte — is a function of the
// operation stream alone. The file header records WithSyncRebuilds
// itself, so the background collection is saved under the synchronous
// one's header and every other byte is compared.
func TestBackgroundIngestBytesMatchSync(t *testing.T) {
	gen := textgen.NewCollection(textgen.CollectionOptions{Sigma: 16, MinLen: 1024, MaxLen: 4096, Seed: 43})
	batches := make([][]Document, 16)
	for b := range batches {
		for range 80 {
			batches[b] = append(batches[b], gen.NextDoc())
		}
	}
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			want := groupedTops(batches, shards)
			if len(want) < 3*max(shards, 1) {
				t.Fatalf("the batches group into %d tops: the scenario builds too few in parallel", len(want))
			}
			save := func(name string, opts ...Option) (v1, v2 []byte) {
				opts = append(opts, WithTau(2))
				if shards > 0 {
					opts = append(opts, WithShards(shards))
				}
				c := mustCollection(t, opts...)
				for _, b := range batches {
					if err := c.InsertBatch(b); err != nil {
						t.Fatal(err)
					}
				}
				c.WaitIdle()
				if st, got := c.Stats(), sortedTops(c); st.Parked != 0 || !slices.Equal(got, weights(want)) {
					t.Fatalf("%s: %d symbols parked and tops %v after WaitIdle, want 0 and %v", name, st.Parked, got, want)
				}
				c.cfg.syncRebuilds = true
				dir := t.TempDir()
				p1, p2 := filepath.Join(dir, "v1"), filepath.Join(dir, "v2")
				must(t, c.SaveFile(p1))
				must(t, c.SaveMappedFile(p2))
				v1, err := os.ReadFile(p1)
				must(t, err)
				v2, err = os.ReadFile(p2)
				must(t, err)
				return v1, v2
			}
			bg1, bg2 := save("background", WithTransformation(WorstCase))
			sy1, sy2 := save("sync", WithTransformation(WorstCase), WithSyncRebuilds())
			if !bytes.Equal(bg1, sy1) {
				t.Errorf("SaveFile: background ingest wrote %d bytes that differ from the synchronous %d", len(bg1), len(sy1))
			}
			if !bytes.Equal(bg2, sy2) {
				t.Errorf("SaveMappedFile: background ingest wrote %d bytes that differ from the synchronous %d", len(bg2), len(sy2))
			}
		})
	}
}

// checkBuiltTops requires, after a synchronous ingest, that exactly the
// predicted tops that reached their G are built, each weighing between
// that G and G plus one batch part below maxPart, and that the rest of
// the ingest is parked in the open tops.
func checkBuiltTops(t *testing.T, c *Collection, want []top, maxPart int) {
	t.Helper()
	built := slices.DeleteFunc(slices.Clone(want), func(tp top) bool { return tp.g == 0 })
	open := 0
	for _, tp := range want {
		if tp.g == 0 {
			open += tp.weight
		}
	}
	st, got := c.Stats(), sortedTops(c)
	if !slices.Equal(got, weights(built)) || st.Parked != open {
		t.Fatalf("after the ingest: tops %v and %d symbols parked, want %v and %d", got, st.Parked, weights(built), open)
	}
	for _, tp := range built {
		if tp.weight < tp.g || tp.weight >= tp.g+maxPart {
			t.Errorf("a top built during the ingest weighs %d, want [%d, %d)", tp.weight, tp.g, tp.g+maxPart)
		}
	}
}

// ingestModes are the rebuild modes the grouping tests run under.
var ingestModes = []struct {
	name string
	opts []Option
}{{"sync", []Option{WithSyncRebuilds()}}, {"background", nil}}

// TestIngestGroupsTops pins, by count, how over-C0 batches share tops:
// consecutive ones gather in one open top that closes at the engine's
// groupWeight, so each top built during the ingest weighs between G and
// G plus one batch; an ordinary insert closes it, so a batch between
// two is its own top; the open top answers, and takes deletes, as the
// reference does; and WaitIdle and SaveFile leave nothing parked.
// Synchronous and background rebuilds group alike. The last cases ingest
// past the crossover, where G grows with the shard.
func TestIngestGroupsTops(t *testing.T) {
	const docLen, perBatch = 2048, 32 // 64 KiB batches
	for _, shards := range []int{0, 2} {
		for _, mode := range ingestModes {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, mode.name), func(t *testing.T) {
				gen := textgen.NewCollection(textgen.CollectionOptions{Sigma: 16, Seed: 47})
				batches := make([][]Document, 10)
				for b := range batches {
					for range perBatch {
						batches[b] = append(batches[b], gen.NextDocLen(docLen))
					}
				}
				opts := append([]Option{WithTransformation(WorstCase), WithTau(2)}, mode.opts...)
				if shards > 0 {
					opts = append(opts, WithShards(shards))
				}
				c := mustCollection(t, opts...)
				ref := mustCollection(t, WithTransformation(Amortized))
				for _, b := range batches {
					for _, x := range []*Collection{c, ref} {
						if err := x.InsertBatch(b); err != nil {
							t.Fatal(err)
						}
					}
				}
				// Synchronously, only the tops that reached G are built by
				// now; the rest (lighter than G) are open.
				want := groupedTops(batches, shards)
				if mode.opts != nil {
					checkBuiltTops(t, c, want, perBatch*docLen)
				}

				// The open top answers as the reference does, before and
				// after a delete of one of its documents.
				last := batches[len(batches)-1]
				pats := [][]byte{last[3].Data[100:106], last[17].Data[7:11], batches[0][0].Data[50:55], []byte("ZZZZZZZZ")}
				check := func(when string) {
					t.Helper()
					for _, p := range pats {
						if got, exp := c.Count(p), ref.Count(p); got != exp {
							t.Fatalf("%s: Count(%q) = %d, reference %d", when, p, got, exp)
						}
						if got, exp := findAll(c, p), findAll(ref, p); !slices.Equal(got, exp) {
							t.Fatalf("%s: FindFunc(%q) gives %d occurrences, reference %d", when, p, len(got), len(exp))
						}
					}
					for _, d := range last {
						got, ok := c.Extract(d.ID, 1000, 64)
						exp, refOK := ref.Extract(d.ID, 1000, 64)
						if ok != refOK || !bytes.Equal(got, exp) {
							t.Fatalf("%s: Extract(%d) = %q, %v; reference %q, %v", when, d.ID, got, ok, exp, refOK)
						}
					}
				}
				check("open top parked")
				for _, x := range []*Collection{c, ref} {
					must(t, x.Delete(last[3].ID))
				}
				check("after a delete from the open top")

				c.WaitIdle()
				if st, got := c.Stats(), sortedTops(c); st.Parked != 0 || len(got) != len(want) {
					t.Fatalf("after WaitIdle: %d symbols parked and tops %v, want 0 and %d tops %v", st.Parked, got, len(want), want)
				}
				check("after WaitIdle")

				// An ordinary insert closes the open top: batches with one
				// in every shard between them are a top per shard each,
				// as they were before grouping.
				touchShards := func() {
					hit := make(map[int]bool)
					for len(hit) < max(shards, 1) {
						d, s := gen.NextDocLen(16), 0
						if shards > 0 {
							s = shardOf(d.ID, shards)
						}
						if !hit[s] {
							hit[s] = true
							mustInsert(t, c, d)
						}
					}
				}
				before, exp := c.Stats().Tops, 0
				touchShards()
				for range 2 {
					extra := make([]Document, perBatch)
					for i := range extra {
						extra[i] = gen.NextDocLen(docLen)
					}
					must(t, c.InsertBatch(extra))
					touchShards()
					exp += len(groupedTops([][]Document{extra}, shards))
				}
				if st := c.Stats(); mode.opts != nil && st.Parked != 0 {
					t.Fatalf("%d symbols parked after ordinary inserts, want 0", st.Parked)
				}
				c.WaitIdle()
				if got := c.Stats().Tops - before; got != exp {
					t.Fatalf("two batches isolated by ordinary inserts left %d tops, want %d", got, exp)
				}

				// SaveFile closes the open top like WaitIdle.
				extra := make([]Document, perBatch)
				for i := range extra {
					extra[i] = gen.NextDocLen(docLen)
				}
				must(t, c.InsertBatch(extra))
				must(t, c.SaveFile(filepath.Join(t.TempDir(), "grouped.snap")))
				if st := c.Stats(); st.Parked != 0 {
					t.Fatalf("%d symbols parked after SaveFile, want 0", st.Parked)
				}
			})
		}
	}

	// Past n = 768 KiB·τ, G is n/(4τ): 4 MiB of 128 KiB batches at
	// τ = 2 puts it past 192 KiB in every shard, and each top closes at
	// the G in force when it fills.
	for _, shards := range []int{0, 2} {
		for _, mode := range ingestModes {
			t.Run(fmt.Sprintf("above-crossover/shards=%d/%s", shards, mode.name), func(t *testing.T) {
				gen := textgen.NewCollection(textgen.CollectionOptions{Sigma: 16, Seed: 53})
				batches := make([][]Document, 32)
				for b := range batches {
					for range 2 * perBatch {
						batches[b] = append(batches[b], gen.NextDocLen(docLen))
					}
				}
				want := groupedTops(batches, shards)
				grown := 0
				for _, tp := range want {
					if tp.g > 192<<10 {
						grown++
					}
				}
				if grown < 2*max(shards, 1) {
					t.Fatalf("%d tops close past G = 192 KiB in %v: the scenario barely crosses over", grown, want)
				}
				opts := append([]Option{WithTransformation(WorstCase), WithTau(2)}, mode.opts...)
				if shards > 0 {
					opts = append(opts, WithShards(shards))
				}
				c := mustCollection(t, opts...)
				for _, b := range batches {
					must(t, c.InsertBatch(b))
				}
				if mode.opts != nil {
					checkBuiltTops(t, c, want, 2*perBatch*docLen)
				}
				c.WaitIdle()
				if st, got := c.Stats(), sortedTops(c); st.Parked != 0 || !slices.Equal(got, weights(want)) {
					t.Fatalf("after WaitIdle: %d symbols parked and tops %v, want 0 and %v", st.Parked, got, weights(want))
				}
			})
		}
	}
}

// findAll collects every occurrence FindFunc reports, sorted.
func findAll(c *Collection, p []byte) []Occurrence {
	var occs []Occurrence
	c.FindFunc(p, func(o Occurrence) bool {
		occs = append(occs, o)
		return true
	})
	slices.SortFunc(occs, func(x, y Occurrence) int {
		return cmp.Or(cmp.Compare(x.DocID, y.DocID), cmp.Compare(x.Off, y.Off))
	})
	return occs
}
