package dyncoll

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dyncoll/internal/textgen"
)

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
	gen := textgen.NewCollection(textgen.CollectionOptions{Sigma: 16, MinLen: 64, MaxLen: 256, Seed: 43})
	batches := make([][]Document, 12)
	for b := range batches {
		for range 64 {
			batches[b] = append(batches[b], gen.NextDoc())
		}
	}
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			save := func(name string, opts ...Option) (v1, v2 []byte) {
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
				if st := c.Stats(); st.Parked != 0 || st.Tops < len(batches) {
					t.Fatalf("%s: %d symbols parked and %d tops after WaitIdle, want 0 and ≥ %d", name, st.Parked, st.Tops, len(batches))
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
