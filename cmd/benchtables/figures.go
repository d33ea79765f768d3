package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"dyncoll/internal/binrel"
	"dyncoll/internal/core"
	"dyncoll/internal/doc"
	"dyncoll/internal/graph"
	"dyncoll/internal/textgen"
)

// updatable is the slice of the collection API the latency churn needs.
type updatable interface {
	Insert(d doc.Doc) error
	Delete(id uint64) bool
}

// ----------------------------------------------------------------------
// Figure 1 — Transformation 1's sub-collection machinery: geometric
// capacities, small uncompressed C0, cascaded rebuilds.
// ----------------------------------------------------------------------

func fig1(quick bool) {
	fmt.Println("=== Figure 1: Transformation 1 sub-collections (trace) ===")
	fmt.Println("paper: |C0| ≤ 2n/log²n uncompressed; max_i grow by factor logᵋn; texts cascade")
	docs := 3000
	if quick {
		docs = 600
	}
	a := core.NewAmortized(core.Options{Builder: fmBuilder(8)})
	gen := textgen.NewCollection(textgen.CollectionOptions{
		Sigma: 16, MinLen: 100, MaxLen: 500, Seed: 123,
	})
	checkpoints := map[int]bool{docs / 10: true, docs / 3: true, docs: true}
	maxC0Ratio := 0.0
	for i := 1; i <= docs; i++ {
		a.Insert(gen.NextDoc())
		st := a.Stats()
		n := a.Len()
		if n > 4096 {
			lg := math.Log2(float64(n))
			bound := 2 * float64(n) / (lg * lg)
			if r := float64(st.LevelSizes[0]) / bound; r > maxC0Ratio {
				maxC0Ratio = r
			}
		}
		if checkpoints[i] {
			fmt.Printf("\nafter %d inserts (n=%d): rebuilds=%d global=%d\n",
				i, n, st.LevelRebuilds, st.GlobalRebuilds)
			fmt.Printf("  %-6s %12s %12s\n", "level", "size", "cap")
			for j, sz := range st.LevelSizes {
				tag := ""
				if j == 0 {
					tag = " (C0, uncompressed)"
				}
				fmt.Printf("  %-6d %12d %12d%s\n", j, sz, st.LevelCaps[j], tag)
			}
		}
	}
	fmt.Printf("\nmax |C0| / (2n/log²n) observed: %.2f (paper bound: O(1))\n", maxC0Ratio)
}

// ----------------------------------------------------------------------
// Figures 2–3 — Transformation 2's worst-case machinery: update-latency
// distribution vs Transformation 1, plus the Dietz–Sleator dead-fraction
// invariant on top collections.
// ----------------------------------------------------------------------

func fig23(quick bool) {
	fmt.Println("=== Figures 2–3: worst-case update machinery (T2 vs T1) ===")
	fmt.Println("paper: T2 bounds foreground work per update (locked copies + background")
	fmt.Println("builds + Dietz–Sleator top sweeping); T1 pays for whole rebuilds inline")
	ops := 2500
	if quick {
		ops = 600
	}

	churn := func(mk func() updatable) (lat []time.Duration) {
		gen := textgen.NewCollection(textgen.CollectionOptions{
			Sigma: 16, MinLen: 100, MaxLen: 600, Seed: 321,
		})
		idx := mk()
		var live []uint64
		for i := 0; i < ops; i++ {
			d := gen.NextDoc()
			t0 := time.Now()
			idx.Insert(d)
			lat = append(lat, time.Since(t0))
			live = append(live, d.ID)
			if len(live) > 40 && i%2 == 0 {
				id := live[0]
				live = live[1:]
				t0 = time.Now()
				idx.Delete(id)
				lat = append(lat, time.Since(t0))
			}
		}
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		return lat
	}

	t1 := churn(func() updatable {
		return core.NewAmortized(core.Options{Builder: fmBuilder(8)})
	})
	w := core.NewWorstCase(core.Options{Builder: fmBuilder(8)})
	t2 := churn(func() updatable { return w })
	w.WaitIdle()

	pct := func(l []time.Duration, p float64) time.Duration {
		return l[int(float64(len(l)-1)*p)]
	}
	fmt.Printf("\n%-18s %12s %12s %12s %12s\n", "update latency", "p50", "p90", "p99", "max")
	fmt.Printf("%-18s %12v %12v %12v %12v\n", "T1 (amortized)",
		pct(t1, 0.5), pct(t1, 0.9), pct(t1, 0.99), t1[len(t1)-1])
	fmt.Printf("%-18s %12v %12v %12v %12v\n", "T2 (worst-case)",
		pct(t2, 0.5), pct(t2, 0.9), pct(t2, 0.99), t2[len(t2)-1])

	st := w.Stats()
	fmt.Printf("\nT2 machinery counters: background builds=%d temp parks=%d\n",
		st.BackgroundBuilds, st.TempParks)
	fmt.Printf("top collections: %d (max %d), purge sweeps=%d, rebalances=%d\n",
		st.Tops, st.MaxTops, st.TopPurges, st.Rebalances)
	worstDead := 0.0
	for i, dead := range st.TopDead {
		if tot := st.TopSizes[i] + dead; tot > 0 {
			if f := float64(dead) / float64(tot); f > worstDead {
				worstDead = f
			}
		}
	}
	fmt.Printf("worst top dead-fraction: %.3f (Dietz–Sleator bound ≈ (1+h_2τ)/τ, τ=%d)\n",
		worstDead, w.Tau())
	fmt.Println("\nshape check: T2's sync builds ≪ ops and its p99 sits below T1's; on a")
	fmt.Println("single-core host the max column converges because background builds share the CPU.")
}

// ----------------------------------------------------------------------
// Theorem 2 — dynamic binary relations.
// ----------------------------------------------------------------------

func theorem2(quick bool) {
	fmt.Println("=== Theorem 2: dynamic compressed binary relations ===")
	fmt.Println("paper: report O((k+1)·loglog σ·loglog n)/item, count O(log n), update O(logᵋn)")
	sizes := []int{1 << 14, 1 << 16, 1 << 18}
	if quick {
		sizes = []int{1 << 12, 1 << 14}
	}
	fmt.Printf("\n%10s %14s %16s %16s %14s %12s\n",
		"pairs", "add(ns/op)", "related(ns/op)", "report(ns/item)", "count(ns/op)", "bits/pair")
	for _, n := range sizes {
		objects := n / 8
		labels := 256
		r := binrel.New(binrel.Options{})
		zipf := textgen.NewSource(255, 0, 0.7, 5)
		labStream := zipf.Generate(2 * n)

		start := time.Now()
		added := 0
		for i := 0; added < n && i < len(labStream); i++ {
			o := uint64(i % objects)
			l := uint64(labStream[i]) % uint64(labels)
			if r.Add(o, l) {
				added++
			}
		}
		addNs := time.Since(start).Nanoseconds() / int64(added)

		tRel := timeIt(2000, func() {
			r.Related(uint64(added)%uint64(objects), uint64(added)%uint64(labels))
		})

		items := 0
		tReport := timeIt(50, func() {
			items = 0
			for o := uint64(0); o < 64; o++ {
				r.LabelsOf(o, func(uint64) bool { items++; return true })
			}
		})
		var perItem time.Duration
		if items > 0 {
			perItem = tReport / time.Duration(items)
		}

		tCount := timeIt(2000, func() {
			r.CountObjects(uint64(added) % uint64(labels))
		})

		fmt.Printf("%10d %14d %16d %16d %14d %12.1f\n",
			r.Len(), addNs, tRel.Nanoseconds(), perItem.Nanoseconds(),
			tCount.Nanoseconds(), float64(r.SizeBits())/float64(r.Len()))
	}
	fmt.Println("\nshape check: per-item report cost stays near-flat as n grows 16×;")
	fmt.Println("space per pair tracks the label-distribution entropy, not log(σl·t).")
}

// ----------------------------------------------------------------------
// Theorem 3 — dynamic graphs.
// ----------------------------------------------------------------------

func theorem3(quick bool) {
	fmt.Println("=== Theorem 3: dynamic compressed directed graphs ===")
	fmt.Println("paper: same bounds as Theorem 2 with objects = labels = nodes")
	edges := 1 << 16
	if quick {
		edges = 1 << 13
	}
	nodes := edges / 8

	g := graph.New(graph.Options{})
	// Power-law-ish out-degrees via preferential attachment.
	src := textgen.NewSource(255, 0, 0.6, 11)
	stream := src.Generate(4 * edges)
	start := time.Now()
	added := 0
	var probes []uint64 // nodes known to have out-edges
	for i := 0; added < edges && i+1 < len(stream); i += 2 {
		// Skewed out-degrees without a single mega-hub: mix the symbol with
		// the position so popular symbols spread over a node neighborhood.
		u := (uint64(stream[i])*31 + uint64(i%97)) % uint64(nodes)
		v := (uint64(stream[i+1])*uint64(stream[i]) + uint64(i)) % uint64(nodes)
		if g.AddEdge(u, v) {
			added++
			if len(probes) < 64 && added%16 == 1 {
				probes = append(probes, u)
			}
		}
	}
	addNs := time.Since(start).Nanoseconds() / int64(added)

	tHas := timeIt(2000, func() { g.HasEdge(7, 9) })
	items := 0
	tNeigh := timeIt(50, func() {
		items = 0
		for _, u := range probes {
			g.NeighborsFunc(u, func(uint64) bool { items++; return true })
		}
	})
	perItem := 0.0
	if items > 0 {
		perItem = float64(tNeigh.Nanoseconds()) / float64(items)
	}
	tDeg := timeIt(2000, func() { g.InDegree(3) })

	// Churn: delete & re-add a block of edges.
	all := g.Edges()
	start = time.Now()
	for _, e := range all[:len(all)/8] {
		g.DeleteEdge(e.Object, e.Label)
	}
	for _, e := range all[:len(all)/8] {
		g.AddEdge(e.Object, e.Label)
	}
	churnNs := time.Since(start).Nanoseconds() / int64(2*(len(all)/8))

	fmt.Printf("\nedges=%d nodes=%d\n", g.EdgeCount(), nodes)
	fmt.Printf("%-26s %12d\n", "add (ns/edge)", addNs)
	fmt.Printf("%-26s %12d\n", "has-edge (ns/op)", tHas.Nanoseconds())
	fmt.Printf("%-26s %12.2f\n", "neighbors (ns/item)", perItem)
	fmt.Printf("%-26s %12d\n", "in-degree (ns/op)", tDeg.Nanoseconds())
	fmt.Printf("%-26s %12d\n", "churn delete+add (ns/op)", churnNs)
	fmt.Printf("%-26s %12.1f\n", "bits/edge", float64(g.SizeBits())/float64(g.EdgeCount()))
	fmt.Println("\nshape check: reporting stays O(1)-ish per delivered edge; updates polylog.")
}
