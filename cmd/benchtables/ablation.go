package main

import (
	"fmt"
	"math/rand"
	"time"

	"dyncoll/internal/core"
	"dyncoll/internal/textgen"
)

// Ablations for the design choices DESIGN.md calls out: the τ
// space/overhead knob, the ε level-growth exponent, and Transformation 3
// versus Transformation 1. The paper states these as parameters of the
// theorems; the ablation shows each trade-off empirically.

func ablation(quick bool) {
	ablationTau(quick)
	fmt.Println()
	ablationEpsilon(quick)
	fmt.Println()
	ablationT3(quick)
}

// ablationTau sweeps τ: larger τ ⇒ purge at a smaller dead fraction, so
// less space is wasted on dead symbols but deletions trigger rebuilds
// more often — the paper's O(u(n)·τ) term in the deletion cost. The
// deletion bitmap is Lemma 2's n bits at every τ; the paper's Lemma 3
// would shrink it to O(n·log τ/τ) bits, which this library does not
// implement (DESIGN, "Lemma 2 or Lemma 3 for V").
func ablationTau(quick bool) {
	fmt.Println("=== Ablation: τ (space overhead vs deletion rebuild work) ===")
	fmt.Println("paper: space overhead O((log σ+log τ)/τ)/sym; deletion cost carries O(u·τ)")
	n := 1 << 16
	if quick {
		n = 1 << 14
	}
	fmt.Printf("\n%6s %12s %14s %10s %16s\n", "τ", "bits/sym avg", "count(µs/qry)", "purges", "delete(ns/sym)")
	for _, tau := range []int{2, 4, 8, 16, 64, 256} {
		gen := textgen.NewCollection(textgen.CollectionOptions{
			Sigma: 16, MinLen: 200, MaxLen: 800, Seed: 77,
		})
		a := core.NewAmortized(core.Options{Builder: fmBuilder(8), Tau: tau})
		var ids []uint64
		for a.Len() < n {
			d := gen.NextDoc()
			a.Insert(d)
			ids = append(ids, d.ID)
		}
		// Delete 40% of documents in random order; each level purges once
		// its dead fraction crosses 1/τ. The space is sampled after every
		// delete and averaged: read once at the end, it shows only whether
		// the last purge happened to land.
		rng := rand.New(rand.NewSource(7))
		victims := rng.Perm(len(ids))[:len(ids)*2/5]
		delSyms := 0
		var delTime time.Duration
		bits := 0.0
		for _, i := range victims {
			if n, ok := a.DocLen(ids[i]); ok {
				delSyms += n
			}
			start := time.Now()
			a.Delete(ids[i])
			delTime += time.Since(start)
			bits += float64(a.SizeBits()) / float64(a.Len()) / float64(len(victims))
		}
		delNs := delTime.Nanoseconds() / int64(delSyms)
		st := a.Stats()
		ps := textgen.NewPatternSampler(gen.Docs, 3)
		pats := ps.PlantedSet(30, 8)
		tCount := timeIt(5, func() {
			for _, p := range pats {
				a.Count(p)
			}
		}) / time.Duration(len(pats))
		fmt.Printf("%6d %12.2f %14.2f %10d %16d\n",
			tau, bits, float64(tCount.Nanoseconds())/1e3, st.Purges, delNs)
	}
	fmt.Println("\nshape check: purges (and so deletion rebuild work) rise with τ while the")
	fmt.Println("space overhead — dead weight; V is n bits throughout — falls, the paper's trade.")
}

// ablationEpsilon sweeps ε: smaller ε ⇒ more levels, cheaper per-level
// rebuilds (lower insert cost) but a wider query fan-out.
func ablationEpsilon(quick bool) {
	fmt.Println("=== Ablation: ε (insert amortization vs query fan-out) ===")
	fmt.Println("paper: insert O(u·logᵋn)·(1/ε) with ⌈2/ε⌉ level moves; query fans over all levels")
	n := 1 << 16
	if quick {
		n = 1 << 14
	}
	fmt.Printf("\n%8s %8s %16s %14s\n", "ε", "levels", "insert(ns/sym)", "count(µs/qry)")
	for _, eps := range []float64{0.25, 0.5, 0.75, 1.0} {
		gen := textgen.NewCollection(textgen.CollectionOptions{
			Sigma: 16, MinLen: 200, MaxLen: 800, Seed: 78,
		})
		a := core.NewAmortized(core.Options{Builder: fmBuilder(8), Epsilon: eps})
		start := time.Now()
		for a.Len() < n {
			a.Insert(gen.NextDoc())
		}
		insNs := time.Since(start).Nanoseconds() / int64(a.Len())
		ps := textgen.NewPatternSampler(gen.Docs, 3)
		pats := ps.PlantedSet(30, 8)
		tCount := timeIt(5, func() {
			for _, p := range pats {
				a.Count(p)
			}
		}) / time.Duration(len(pats))
		fmt.Printf("%8.2f %8d %16d %14.2f\n",
			eps, a.Stats().Levels, insNs, float64(tCount.Nanoseconds())/1e3)
	}
	fmt.Println("\nshape check: smaller ε buys more levels; insert cost and fan-out move")
	fmt.Println("in opposite directions as the paper's 1/ε trade-off predicts.")
}

// ablationT3 compares Transformation 1 (log^ε n capacity ratio) with
// Transformation 3 (ratio 2, O(log log n) levels): cheaper inserts,
// higher query fan-out.
func ablationT3(quick bool) {
	fmt.Println("=== Ablation: Transformation 1 vs Transformation 3 ===")
	fmt.Println("paper: T3 inserts O(u·loglog n) amortized; queries visit O(loglog n) levels")
	n := 1 << 16
	if quick {
		n = 1 << 14
	}
	for _, ratio2 := range []bool{false, true} {
		name := "T1 (ratio logᵋn)"
		if ratio2 {
			name = "T3 (ratio 2)"
		}
		gen := textgen.NewCollection(textgen.CollectionOptions{
			Sigma: 16, MinLen: 200, MaxLen: 800, Seed: 79,
		})
		a := core.NewAmortized(core.Options{Builder: fmBuilder(8), Ratio2: ratio2})
		start := time.Now()
		for a.Len() < n {
			a.Insert(gen.NextDoc())
		}
		insNs := time.Since(start).Nanoseconds() / int64(a.Len())
		ps := textgen.NewPatternSampler(gen.Docs, 3)
		pats := ps.PlantedSet(30, 8)
		tCount := timeIt(5, func() {
			for _, p := range pats {
				a.Count(p)
			}
		}) / time.Duration(len(pats))
		fmt.Printf("%-20s levels=%2d insert=%6d ns/sym  count=%7.2f µs/qry  rebuilds=%d\n",
			name, a.Stats().Levels, insNs,
			float64(tCount.Nanoseconds())/1e3, a.Stats().LevelRebuilds)
	}
	fmt.Println("\nshape check: T3 has more levels, fewer symbols moved per insert")
	fmt.Println("(cheaper updates), and a correspondingly wider query fan-out.")
}
