package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sumPass sums w[i] with a little work per part, so a helper has time to
// join.
type sumPass struct{ w []int }

func (s sumPass) Fold(acc, i int) int {
	for k := 0; k < 200; k++ {
		acc += s.w[i] & k & 0
	}
	return acc + s.w[i]
}

func (sumPass) Merge(a, b int) int { return a + b }

func partWeights(n int) ([]int, int) {
	w := make([]int, n)
	total := 0
	for i := range w {
		w[i] = i*7 + 1
		total += w[i]
	}
	return w, total
}

// TestReduceSoloRunsInline: a pass under 2·PartsPerWorker parts, or on
// one core, folds every part on the caller, in order, with no goroutine.
func TestReduceSoloRunsInline(t *testing.T) {
	for _, procs := range []int{1, 4} {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		n := 2*PartsPerWorker - 1
		if procs == 1 {
			n = 10 * PartsPerWorker
		}
		before := runtime.NumGoroutine()
		var order []int
		got := Reduce[[]int](n, orderPass{&order, before, t})
		if len(got) != n || len(order) != n {
			t.Fatalf("GOMAXPROCS %d: folded %d parts, want %d", procs, len(order), n)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("GOMAXPROCS %d: part %d folded %d-th", procs, v, i)
			}
		}
	}
}

type orderPass struct {
	order  *[]int
	before int
	t      *testing.T
}

func (s orderPass) Fold(acc []int, i int) []int {
	if n := runtime.NumGoroutine(); n != s.before {
		s.t.Errorf("part %d folded beside %d goroutines, caller had %d", i, n, s.before)
	}
	*s.order = append(*s.order, i)
	return append(acc, i)
}

func (orderPass) Merge(a, b []int) []int { return append(a, b...) }

// TestReduceTeamSums: with helpers every part is folded exactly once.
func TestReduceTeamSums(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, n := range []int{0, 1, 63, 64, 65, 128, 1000} {
		w, want := partWeights(n)
		for r := 0; r < 20; r++ {
			if got := Reduce[int](n, sumPass{w}); got != want {
				t.Fatalf("n=%d: sum %d, want %d", n, got, want)
			}
		}
	}
}

// TestStreamTeam: a team stream delivers every value exactly once on
// the caller's goroutine, and an early break stops it.
func TestStreamTeam(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n, per = 256, 10
	visit := func(i int, emit func(int) bool) {
		for v := 0; v < per; v++ {
			if !emit(i*per + v) {
				return
			}
		}
	}
	seen := make([]bool, n*per)
	Stream(n, visit, func(v int) bool {
		if seen[v] {
			t.Fatalf("value %d delivered twice", v)
		}
		seen[v] = true
		return true
	})
	for v, ok := range seen {
		if !ok {
			t.Fatalf("value %d never delivered", v)
		}
	}
	got := 0
	Stream(n, visit, func(int) bool {
		got++
		return got < 7
	})
	if got != 7 {
		t.Fatalf("consumer saw %d values after asking to stop at 7", got)
	}
}

// TestHelperBudget runs 16 goroutines counting concurrently, half of
// them streaming with early breaks: the helpers running at once never
// exceed GOMAXPROCS−1, and once every pass has returned the helpers
// drain away — none is left blocked.
func TestHelperBudget(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	before := runtime.NumGoroutine()
	runningPeak.Store(running.Load())
	helped := helperParts.Load()
	w, want := partWeights(8 * PartsPerWorker)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				if g%2 == 0 {
					if got := Reduce[int](len(w), sumPass{w}); got != want {
						t.Errorf("sum %d, want %d", got, want)
						return
					}
					continue
				}
				k := 0
				Stream(len(w), func(i int, emit func(int) bool) {
					for v := 0; v < 8 && emit(v); v++ {
					}
				}, func(int) bool {
					k++
					return k < 3*r+1
				})
			}
		}()
	}
	wg.Wait()
	if peak := int(runningPeak.Load()); peak > max(procs-1, 0) {
		t.Errorf("%d helpers ran at once, budget GOMAXPROCS−1 = %d", peak, procs-1)
	}
	if procs > 1 && helperParts.Load() == helped {
		t.Logf("no helper visited a part (all %d cores busy throughout)", procs)
	}
	if n := settledGoroutines(before); n > before {
		t.Fatalf("%d goroutines after the passes, %d before", n, before)
	}
	if out := helpersOut.Load(); out != 0 {
		t.Fatalf("%d helpers still borrowed after every pass returned", out)
	}
}

// BenchmarkHelperStart measures how long a borrowed helper takes to
// start working while the caller keeps its own core busy — the cost
// PartsPerWorker is set against — in start-µs per helper. It depends on
// how long the helper's core was idle: "warm" follows the previous
// helper after 50 µs of the caller's work, as back-to-back queries do;
// "cold" follows a millisecond's sleep, as a lone query does.
func BenchmarkHelperStart(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skip("needs an idle core")
	}
	for _, c := range []struct {
		name string
		idle func()
	}{
		{"warm", func() {
			for t0 := time.Now(); time.Since(t0) < 50*time.Microsecond; {
			}
		}},
		{"cold", func() { time.Sleep(time.Millisecond) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				c.idle()
				var up atomic.Bool
				t0 := time.Now()
				go func() { up.Store(true) }()
				for !up.Load() {
				}
				total += time.Since(t0)
			}
			b.ReportMetric(total.Seconds()*1e6/float64(b.N), "start-µs")
		})
	}
}
