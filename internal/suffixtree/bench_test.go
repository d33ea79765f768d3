package suffixtree

import (
	"fmt"
	"testing"

	"dyncoll/internal/doc"
	"dyncoll/internal/textgen"
)

// BenchmarkC0Insert times the foreground cost of an update — one 1 KiB
// document of the repo benchmark's text model going into a tree that
// holds 8 or 64 KiB, the range C0 occupies under the ladder.
//
//   - warm: one long-lived tree; every insert past the resident size
//     deletes the oldest document, so the lazy rebuilds are in the
//     figure (each symbol is threaded about twice).
//   - fill: C0's life under the engine — a fresh tree filled to the
//     resident size and dropped, slabs grown from nothing each time.
func BenchmarkC0Insert(b *testing.B) {
	const docLen = 1 << 10
	var docs []doc.Doc
	tg := textgen.NewCollection(textgen.CollectionOptions{Seed: 15})
	for i := 0; i < 256; i++ {
		docs = append(docs, tg.NextDocLen(docLen))
	}
	for _, resident := range []int{8 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("warm/%dKiB", resident>>10), func(b *testing.B) {
			tr := New()
			id, oldest := uint64(0), uint64(0)
			insert := func() {
				tr.Insert(doc.Doc{ID: id, Data: docs[id%uint64(len(docs))].Data})
				id++
				if tr.Len() > resident {
					tr.Delete(oldest)
					oldest++
				}
			}
			for i := 0; i < 4*resident/docLen; i++ { // through the first rebuilds
				insert()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				insert()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*docLen), "ns/symbol")
		})
		b.Run(fmt.Sprintf("fill/%dKiB", resident>>10), func(b *testing.B) {
			b.ReportAllocs()
			tr := New()
			for i := 0; i < b.N; i++ {
				if tr.Len() >= resident {
					tr = New()
				}
				tr.Insert(doc.Doc{ID: uint64(i), Data: docs[i%len(docs)].Data})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*docLen), "ns/symbol")
		})
	}
}
