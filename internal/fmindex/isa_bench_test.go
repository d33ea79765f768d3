package fmindex

import (
	"fmt"
	"math/rand"
	"testing"

	"dyncoll/internal/textgen"
)

// BenchmarkSampleRow prices the row of a sampled position k·s, the
// start of an LF walk segment, on the bench corpus at two store sizes,
// hot: read from a stored ISA array (array), and found through the
// shortcuts and a select sample (shortcuts). The 16 MiB store's samples
// exceed the L2 cache. A walk looks up at most walkLanes rows, together
// (walkPlan, sampleRows).
func BenchmarkSampleRow(b *testing.B) {
	for _, size := range []int{1 << 20, 16 << 20} {
		x := Build(textgen.NewCollection(textgen.CollectionOptions{Seed: 1}).GenerateTotal(size), Options{})
		isa := x.isaRows()
		js := make([]int, 4096)
		rng := rand.New(rand.NewSource(1))
		for i := range js {
			js[i] = rng.Intn(x.saSamp.n) * x.s
		}
		for name, row := range map[string]func(j int) int{
			"array":     func(j int) int { return isa.get(j / x.s) },
			"shortcuts": func(j int) int { return x.sampleRow(j, x.lastRow) },
		} {
			b.Run(fmt.Sprintf("%s/%dMB", name, size>>20), func(b *testing.B) {
				sink := 0
				for i := 0; i < b.N; i++ {
					sink += row(js[i&4095])
				}
				if sink < 0 {
					b.Fatal(sink)
				}
			})
		}
	}
}
