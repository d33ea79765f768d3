package dyncoll

// Go testing.B targets for the paper's Tables 1–2 and Theorem 2 and for
// the layers built on them. cmd/benchtables prints every table and
// figure of the paper as formatted rows, and DESIGN.md records how the
// implementation maps onto the paper. Run with:
//
//	go test -bench=. -benchmem
//
// Sub-benchmark names encode the parameters, e.g.
// BenchmarkTable2Count/T2+FM/n=65536-8.

import (
	"fmt"
	"regexp"
	"slices"
	"sync/atomic"
	"testing"

	"dyncoll/internal/baseline"
	"dyncoll/internal/core"
	"dyncoll/internal/doc"
	"dyncoll/internal/fanout"
	"dyncoll/internal/fmindex"
	"dyncoll/internal/query"
	"dyncoll/internal/textgen"
)

func benchDocs(total, sigma int, seed int64) []doc.Doc {
	gen := textgen.NewCollection(textgen.CollectionOptions{
		Sigma: sigma, Order: 1, Skew: 0.6, MinLen: 256, MaxLen: 2048, Seed: seed,
	})
	gen.GenerateTotal(total)
	return gen.Docs
}

func benchFM(s int) core.Builder {
	return func(docs []doc.Doc) core.StaticIndex {
		return fmindex.Build(docs, fmindex.Options{SampleRate: s})
	}
}

// --- Table 1: static index operations across the sampling parameter ---

func BenchmarkTable1Range(b *testing.B) {
	docs := benchDocs(1<<17, 16, 1)
	ps := textgen.NewPatternSampler(docs, 2)
	pats := ps.PlantedSet(64, 8)
	for _, s := range []int{4, 16, 64} {
		idx := fmindex.Build(docs, fmindex.Options{SampleRate: s})
		b.Run(fmt.Sprintf("s=%d", s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				idx.Range(pats[i%len(pats)])
			}
		})
	}
}

func BenchmarkTable1Locate(b *testing.B) {
	docs := benchDocs(1<<17, 16, 1)
	for _, s := range []int{4, 16, 64} {
		idx := fmindex.Build(docs, fmindex.Options{SampleRate: s})
		b.Run(fmt.Sprintf("s=%d", s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				idx.Locate(i % idx.SALen())
			}
		})
	}
}

// --- Build path: static index construction and engine rebuild cost ---

// BenchmarkIndexBuild measures one full static-index construction
// (concat → suffix array → BWT → wavelet/Ψ encoding → samples) over a
// fixed corpus — the unit of work every engine rebuild pays.
func BenchmarkIndexBuild(b *testing.B) {
	docs := benchDocs(1<<17, 16, 1)
	b.Run("FM", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fmindex.Build(docs, fmindex.Options{SampleRate: 16})
		}
	})
	b.Run("CSA", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fmindex.BuildCSA(docs, fmindex.Options{SampleRate: 16})
		}
	})
}

// BenchmarkRebuildLatency measures the engine-level merge cost: inserts
// into a preloaded worst-case ladder with synchronous (inline) builds,
// so every cascade's concat/SA-IS/BWT/wavelet rebuild lands inside the
// measured loop. Reported ns/symbol is total time over inserted payload
// symbols.
func BenchmarkRebuildLatency(b *testing.B) {
	gen := textgen.NewCollection(textgen.CollectionOptions{
		Sigma: 16, MinLen: 256, MaxLen: 1024, Seed: 23,
	})
	idx := core.NewWorstCase(core.Options{Builder: benchFM(8), Inline: true})
	for syms := 0; syms < 1<<16; {
		d := gen.NextDoc()
		if err := idx.Insert(d); err != nil {
			b.Fatal(err)
		}
		syms += len(d.Data)
	}
	b.ReportAllocs()
	b.ResetTimer()
	syms := 0
	for i := 0; i < b.N; i++ {
		d := gen.NextDoc()
		if err := idx.Insert(d); err != nil {
			b.Fatal(err)
		}
		syms += len(d.Data)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(syms), "ns/symbol")
}

// BenchmarkMaterialize measures the input side of a rebuild: turning a
// store back into its documents. "bulk" is what rebuilds run — one BWT
// inversion per store (fmindex.Index.AppendDocs); "per-document" is one
// Extract per document, the path every index without a bulk reader (and
// the query API) still takes. The corpus is the repo benchmark's:
// textgen defaults, documents of 64–4096 symbols. Extract's cost per
// symbol does not depend on how many documents are read, so above 1 MiB
// the per-document side reads every 8th document per iteration (a
// different eighth each time) to keep an iteration under a quarter
// second.
func BenchmarkMaterialize(b *testing.B) {
	for _, size := range []int{64 << 10, 1 << 20, 4 << 20} {
		gen := textgen.NewCollection(textgen.CollectionOptions{MinLen: 64, MaxLen: 4096, Seed: 29})
		gen.GenerateTotal(size)
		idx := fmindex.Build(gen.Docs, fmindex.Options{})
		all := make([]int, idx.DocCount())
		for i := range all {
			all[i] = i
		}
		perSymbol := func(b *testing.B, syms int) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(syms), "ns/symbol")
		}
		b.Run(fmt.Sprintf("%dKiB/bulk", size>>10), func(b *testing.B) {
			b.ReportAllocs()
			dst := make([]doc.Doc, 0, len(all))
			for i := 0; i < b.N; i++ {
				idx.AppendDocs(all, dst)
			}
			perSymbol(b, b.N*idx.SymbolCount())
		})
		b.Run(fmt.Sprintf("%dKiB/per-document", size>>10), func(b *testing.B) {
			b.ReportAllocs()
			stride := 1
			if size > 1<<20 {
				stride = 8
			}
			syms := 0
			for i := 0; i < b.N; i++ {
				for d := i % stride; d < len(all); d += stride {
					syms += len(idx.Extract(d, 0, idx.DocLen(d)))
				}
			}
			perSymbol(b, syms)
		})
	}
}

// --- Table 2: dynamic count, ours vs baseline ---

type bench2Index interface {
	Insert(doc.Doc) error
	Count([]byte) int
}

func table2Indexes(s int) map[string]func() bench2Index {
	return map[string]func() bench2Index{
		"T1+FM": func() bench2Index {
			return core.NewAmortized(core.Options{Builder: benchFM(s)})
		},
		"T2+FM": func() bench2Index {
			return core.NewWorstCase(core.Options{Builder: benchFM(s), Inline: true})
		},
		"DynFM-baseline": func() bench2Index { return baseline.NewDynFM(s) },
		"SuffixTree":     func() bench2Index { return baseline.NewSTIndex() },
	}
}

func BenchmarkTable2Count(b *testing.B) {
	const s = 8
	for name, mk := range table2Indexes(s) {
		for _, n := range []int{1 << 14, 1 << 17} {
			docs := benchDocs(n, 16, 2)
			idx := mk()
			for _, d := range docs {
				idx.Insert(d)
			}
			ps := textgen.NewPatternSampler(docs, 3)
			pats := ps.PlantedSet(64, 8)
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					idx.Count(pats[i%len(pats)])
				}
			})
		}
	}
}

// --- Theorem 2: binary relation operations ---

func BenchmarkTheorem2Relation(b *testing.B) {
	r, err := NewRelation()
	if err != nil {
		b.Fatal(err)
	}
	src := textgen.NewSource(255, 0, 0.7, 12)
	stream := src.Generate(1 << 18)
	added := 0
	for i := 0; added < 1<<16 && i < len(stream); i++ {
		if r.Add(uint64(i%(1<<13)), uint64(stream[i])) == nil {
			added++
		}
	}
	b.Run("related", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Related(uint64(i%(1<<13)), uint64(i%256))
		}
	})
	b.Run("count-objects", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.CountObjects(uint64(i % 256))
		}
	})
	b.Run("report-labels", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.LabelsOf(uint64(i%(1<<13)), func(uint64) bool { return true })
		}
	})
	b.Run("add-delete", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o, l := uint64(1<<20+i), uint64(i%256)
			r.Add(o, l)
			r.Delete(o, l)
		}
	})
}

// --- Engine unification: relation/graph benches on the shared ladder ---

// BenchmarkRelationIngest measures pair-insertion throughput under both
// engine schedulings — the amortized cascades and the worst-case
// background pipeline Relation gained from the generic engine.
func BenchmarkRelationIngest(b *testing.B) {
	for _, tf := range []struct {
		name string
		t    Transformation
	}{{"amortized", Amortized}, {"worstcase", WorstCase}} {
		b.Run(tf.name, func(b *testing.B) {
			r, err := NewRelation(WithTransformation(tf.t), WithSyncRebuilds())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Add(uint64(i), uint64(i%509))
			}
			b.StopTimer()
			r.WaitIdle()
		})
	}
}

// BenchmarkGraphSuccessors measures out-neighbor enumeration on a
// preloaded graph: the hot read path BFS/PageRank-style workloads sit
// in, fanning out over the engine's live sub-collections.
func BenchmarkGraphSuccessors(b *testing.B) {
	const nodes = 1 << 12
	g, err := NewGraph(WithSyncRebuilds())
	if err != nil {
		b.Fatal(err)
	}
	src := textgen.NewSource(255, 0, 0.6, 21)
	stream := src.Generate(1 << 17)
	for i := 0; i+1 < len(stream); i += 2 {
		u := uint64(stream[i])<<4 | uint64(i%16)
		v := uint64(stream[i+1]) | uint64(i%64)<<8
		g.AddEdge(u%nodes, v)
	}
	g.WaitIdle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for range g.Successors(uint64(i % nodes)) {
		}
	}
}

// BenchmarkRelationFanOut measures the label-keyed queries that cannot
// be routed to one shard (ObjectsOf/CountObjects) against the shard
// count: each query fans out across all shards in parallel goroutines,
// and per-shard read locks let concurrent clients overlap.
func BenchmarkRelationFanOut(b *testing.B) {
	const pairs = 1 << 16
	for _, shards := range []int{1, 2, 4, 8} {
		r, err := NewRelation(WithShards(shards), WithSyncRebuilds())
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < pairs; i++ {
			r.Add(uint64(i), uint64(i%251))
		}
		r.WaitIdle()
		b.Run(fmt.Sprintf("serial/shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.ObjectsOf(uint64(i%251), func(uint64) bool { return true })
			}
		})
		b.Run(fmt.Sprintf("clients/shards=%d", shards), func(b *testing.B) {
			var next atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := next.Add(1)
					r.ObjectsOf(uint64(i%251), func(uint64) bool { return true })
				}
			})
		})
	}
}

// --- Table 1 addendum: the Ψ-CSA family ([39]) vs the FM-index ---

func BenchmarkTable1CSARange(b *testing.B) {
	docs := benchDocs(1<<17, 16, 1)
	ps := textgen.NewPatternSampler(docs, 2)
	pats := ps.PlantedSet(64, 8)
	csa := fmindex.BuildCSA(docs, fmindex.Options{SampleRate: 16})
	b.Run("CSA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			csa.Range(pats[i%len(pats)])
		}
	})
	fm := fmindex.Build(docs, fmindex.Options{SampleRate: 16})
	b.Run("FM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fm.Range(pats[i%len(pats)])
		}
	})
}

// --- v2.1 sharding: parallel fan-out queries and concurrent ingest ---

// shardedBench builds a collection with the given shard count (0 =
// unsharded) pre-loaded with the corpus.
func shardedBench(b *testing.B, shards int, docs []Document) *Collection {
	b.Helper()
	opts := []Option{WithSyncRebuilds()}
	if shards > 0 {
		opts = append(opts, WithShards(shards))
	}
	c, err := NewCollection(opts...)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.InsertBatch(docs); err != nil {
		b.Fatal(err)
	}
	c.WaitIdle()
	return c
}

// BenchmarkFindParallel measures query throughput against the shard
// count. "serial" is one client issuing queries back to back: each
// query fans out across all shards in parallel goroutines, so latency
// drops as shards divide the corpus (needs ≥ shard-count cores to show
// fully). "clients" is GOMAXPROCS concurrent clients via b.RunParallel:
// per-shard read locks let all of them query simultaneously, which the
// unsharded structure cannot do at all — shards=1 is the concurrency-
// safe floor.
func BenchmarkFindParallel(b *testing.B) {
	docs := benchDocs(1<<17, 16, 17)
	ps := textgen.NewPatternSampler(docs, 18)
	pats := ps.PlantedSet(64, 8)
	heavyPats := ps.PlantedSet(8, 2)
	for _, shards := range []int{0, 1, 2, 4, 8} {
		c := shardedBench(b, shards, docs)
		name := "unsharded"
		if shards > 0 {
			name = fmt.Sprintf("shards=%d", shards)
		}
		b.Run("serial/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.FindFunc(pats[i%len(pats)], func(Occurrence) bool { return true })
			}
		})
		// Heavy patterns (length 2 over σ=16 ⇒ ~512 occurrences each)
		// stress the fan-out's per-value merge cost rather than the
		// backward search; this is the case the chunked emission of
		// fanOut exists for.
		b.Run("serial-heavy/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.FindFunc(heavyPats[i%len(heavyPats)], func(Occurrence) bool { return true })
			}
		})
		if shards > 0 { // the unsharded collection is not concurrency-safe
			b.Run("clients/"+name, func(b *testing.B) {
				var next atomic.Int64
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						i := int(next.Add(1))
						c.FindFunc(pats[i%len(pats)], func(Occurrence) bool { return true })
					}
				})
			})
		}
	}
}

// BenchmarkFanOut isolates the fan-out merge machinery from any index
// work: p synthetic producers each stream 8192 values into one
// consumer. This is the per-value overhead every sharded enumeration
// (FindFunc, ObjectsOf, PairsFunc, …) pays on top of its actual query
// cost.
func BenchmarkFanOut(b *testing.B) {
	const perShard = 1 << 13
	for _, p := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				fanout.FanOut(p, func(i int, emit func(int) bool) {
					for v := 0; v < perShard; v++ {
						if !emit(v) {
							return
						}
					}
				}, func(int) bool { total++; return true })
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p*perShard), "ns/value")
		})
	}
}

// BenchmarkIngestSharded measures bulk InsertBatch against the shard
// count: the batch splits per shard and the per-shard ingests (C0
// insertion + rebuild cascades) run concurrently.
func BenchmarkIngestSharded(b *testing.B) {
	const nDocs = 1024
	gen := textgen.NewCollection(textgen.CollectionOptions{
		Sigma: 16, MinLen: 64, MaxLen: 256, Seed: 37,
	})
	docs := make([]Document, nDocs)
	syms := 0
	for i := range docs {
		docs[i] = gen.NextDoc()
		syms += len(docs[i].Data)
	}
	for _, shards := range []int{0, 2, 4, 8} {
		name := "unsharded"
		if shards > 0 {
			name = fmt.Sprintf("shards=%d", shards)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := []Option{WithSyncRebuilds()}
				if shards > 0 {
					opts = append(opts, WithShards(shards))
				}
				c, err := NewCollection(opts...)
				if err != nil {
					b.Fatal(err)
				}
				if err := c.InsertBatch(docs); err != nil {
					b.Fatal(err)
				}
				c.WaitIdle()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(syms), "ns/symbol")
		})
	}
}

// --- v2.4 query layer: regex search and ranked top-k ---

// BenchmarkRegexSearch measures regex execution against the planner's
// two regimes over the same preloaded corpus. "planned" is a selective
// expression built around a planted literal, so the required-literal
// analysis filters candidates through the index and only a few
// documents are verified. "scan" is an expression the analysis cannot
// extract literals from (case-folded letters are rejected), so every
// document is verified with the regexp engine — the fallback's full
// price.
//
// Two corpus shapes: the original 131 k symbols in one InsertBatch over
// four shards (a handful of stores, short literals that occur in every
// one), and "manystore" (manyStoreCollection), queried with literals
// long enough to be absent from most stores, which is where deciding
// the filter store by store pays.
func BenchmarkRegexSearch(b *testing.B) {
	few := benchDocs(1<<17, 16, 41)
	many := benchDocs(1<<19, 16, 41)
	manyStores := manyStoreCollection(b, many)
	for _, shape := range []struct {
		prefix string
		c      *Collection
		pats   [][]byte
	}{
		{"", shardedBench(b, 4, few), textgen.NewPatternSampler(few, 42).PlantedSet(16, 8)},
		{"manystore/", manyStores, textgen.NewPatternSampler(many, 42).PlantedSet(16, 16)},
	} {
		c := shape.c
		var exprs []string
		for _, p := range shape.pats[:4] {
			// The middle byte generalizes to a wildcard: still selective,
			// still planned, two required literals.
			mid := len(p) / 2
			exprs = append(exprs, "(?s)"+regexp.QuoteMeta(string(p[:mid]))+"."+regexp.QuoteMeta(string(p[mid+1:])))
		}
		for _, expr := range exprs {
			it, err := c.FindRegexp(expr)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for range it {
				n++
			}
			if n == 0 {
				b.Fatalf("%s%s: planted pattern found no matches", shape.prefix, expr)
			}
		}
		b.Run(shape.prefix+"planned", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				it, err := c.FindRegexp(exprs[i%len(exprs)])
				if err != nil {
					b.Fatal(err)
				}
				for range it {
				}
			}
		})
		b.Run(shape.prefix+"scan", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// (?i) folds the literal, which the analysis must reject; the
				// alphabet is 1..16 so the expression matches nothing and the
				// measured cost is pure per-document verification.
				it, err := c.FindRegexp(`(?i)zzzq`)
				if err != nil {
					b.Fatal(err)
				}
				for range it {
				}
			}
		})
	}
}

// manyStoreCollection ingests docs unsharded in 96 batches, closing the
// open top after each so every batch is one top collection: a ladder of
// about a hundred parts.
func manyStoreCollection(tb testing.TB, docs []Document) *Collection {
	tb.Helper()
	c, err := NewCollection(WithSyncRebuilds())
	if err != nil {
		tb.Fatal(err)
	}
	for batch := range slices.Chunk(docs, (len(docs)+95)/96) {
		if err := c.InsertBatch(batch); err != nil {
			tb.Fatal(err)
		}
		c.WaitIdle()
	}
	if st := c.Stats(); st.Tops < 64 {
		tb.Fatalf("batched ingest left %d tops, want ≥ 64", st.Tops)
	}
	return c
}

// BenchmarkCountManyStores counts planted patterns over the manystore
// ladder: one serial pass over about a hundred parts.
func BenchmarkCountManyStores(b *testing.B) {
	docs := benchDocs(1<<19, 16, 41)
	c := manyStoreCollection(b, docs)
	pats := textgen.NewPatternSampler(docs, 43).PlantedSet(64, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Count(pats[i%len(pats)])
	}
}

// BenchmarkTopK measures the ranked pipeline's k-bound win: FindTopK
// with small k keeps a bounded heap per shard and transfers at most k
// entries per level, where the exhaustive baseline finds every
// occurrence, aggregates per document, scores, and fully sorts — the
// work any caller without the ranked path would do.
func BenchmarkTopK(b *testing.B) {
	// Many small documents and a dense sample rate: the per-occurrence
	// Locate cost (paid identically by both sides) stays low, so the
	// aggregation the two sides actually differ in — bounded heap vs
	// materialize-map-sort — is visible in the totals.
	gen := textgen.NewCollection(textgen.CollectionOptions{
		Sigma: 16, Order: 1, Skew: 0.6, MinLen: 64, MaxLen: 192, Seed: 43,
	})
	gen.GenerateTotal(1 << 18)
	docs := gen.Docs
	ps := textgen.NewPatternSampler(docs, 44)
	pats := ps.PlantedSet(8, 2) // heavy: most documents match
	c, err := NewCollection(WithSyncRebuilds(), WithShards(4), WithSampleRate(4))
	if err != nil {
		b.Fatal(err)
	}
	if err := c.InsertBatch(docs); err != nil {
		b.Fatal(err)
	}
	c.WaitIdle()
	for _, k := range []int{10, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for range c.FindTopK(pats[i%len(pats)], k) {
				}
			}
		})
	}
	b.Run("exhaustive", func(b *testing.B) {
		type agg struct {
			count    int
			firstOff int
		}
		for i := 0; i < b.N; i++ {
			pat := pats[i%len(pats)]
			aggs := make(map[uint64]*agg)
			for _, o := range c.Find(pat) {
				a := aggs[o.DocID]
				if a == nil {
					aggs[o.DocID] = &agg{count: 1, firstOff: o.Off}
					continue
				}
				a.count++
				if o.Off < a.firstOff {
					a.firstOff = o.Off
				}
			}
			ranked := make([]Match, 0, len(aggs))
			for id, a := range aggs {
				n, _ := c.DocLen(id)
				ranked = append(ranked, Match{
					Doc: id, Off: a.firstOff, Len: len(pat),
					Score: query.Score(n, a.count, a.firstOff),
				})
			}
			slices.SortFunc(ranked, func(x, y Match) int {
				switch {
				case x.Score > y.Score:
					return -1
				case x.Score < y.Score:
					return 1
				case x.Doc < y.Doc:
					return -1
				case x.Doc > y.Doc:
					return 1
				}
				return 0
			})
		}
	})
}

// --- v2 API: batch ingest vs looped single inserts ---

// BenchmarkInsertBatch measures the headline batch win: one InsertBatch
// call validates up front and triggers at most one rebuild cascade,
// where the equivalent Insert loop pays a cascade per document. The
// stream mode is bulk ingest as a loader runs it: 64 over-C0 batches
// with builds in the background, then WaitIdle. Each batch parks, and
// up to GOMAXPROCS builds run at once, so run it at -cpu 1,2 to read
// the scaling.
func BenchmarkInsertBatch(b *testing.B) {
	for _, nDocs := range []int{256, 1024} {
		gen := textgen.NewCollection(textgen.CollectionOptions{
			Sigma: 16, MinLen: 64, MaxLen: 256, Seed: 31,
		})
		docs := make([]Document, nDocs)
		syms := 0
		for i := range docs {
			docs[i] = gen.NextDoc()
			syms += len(docs[i].Data)
		}
		for _, mode := range []string{"looped", "batch", "stream"} {
			b.Run(fmt.Sprintf("%s/docs=%d", mode, nDocs), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					opts := []Option{WithSyncRebuilds()}
					if mode == "stream" {
						opts = nil
					}
					c, err := NewCollection(opts...)
					if err != nil {
						b.Fatal(err)
					}
					switch mode {
					case "batch":
						if err := c.InsertBatch(docs); err != nil {
							b.Fatal(err)
						}
					case "stream":
						for k := range 64 {
							if err := c.InsertBatch(docs[k*nDocs/64 : (k+1)*nDocs/64]); err != nil {
								b.Fatal(err)
							}
						}
					default:
						for _, d := range docs {
							if err := c.Insert(d); err != nil {
								b.Fatal(err)
							}
						}
					}
					c.WaitIdle()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(syms), "ns/symbol")
			})
		}
	}
}
