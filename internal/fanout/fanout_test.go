package fanout

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// settledGoroutines waits until the goroutine count is back to at most
// want and reports the last count seen; the deadline only bounds a
// failing test.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFanOutSingleRunsInline checks that one producer runs on the
// caller's goroutine and hands each value straight to the consumer, with
// no goroutine and no chunking.
func TestFanOutSingleRunsInline(t *testing.T) {
	before := runtime.NumGoroutine()
	var seen []int
	FanOut(1, func(i int, emit func(int) bool) {
		if i != 0 {
			t.Errorf("producer index %d", i)
		}
		if n := runtime.NumGoroutine(); n != before {
			t.Errorf("producer runs beside %d goroutines, caller had %d", n, before)
		}
		for v := 0; v < 3; v++ {
			if !emit(v) {
				t.Error("consumer refused a value")
			}
			if len(seen) != v+1 {
				t.Errorf("value %d not delivered before the next emit", v)
			}
		}
	}, func(v int) bool {
		seen = append(seen, v)
		return true
	})
	if len(seen) != 3 {
		t.Fatalf("consumer saw %v", seen)
	}
	ran := false
	ForEach(1, func(int) { ran = runtime.NumGoroutine() == before })
	if !ran {
		t.Fatal("ForEach(1) did not run inline")
	}
}

// TestFanOutEarlyBreak stops the consumer after a few values of endless
// producers and checks that every producer has returned by the time
// FanOut does.
func TestFanOutEarlyBreak(t *testing.T) {
	const n = 4
	var exited atomic.Int32
	got := 0
	FanOut(n, func(i int, emit func(int) bool) {
		defer exited.Add(1)
		for v := 0; emit(v); v++ {
		}
	}, func(int) bool {
		got++
		return got < 10
	})
	if got != 10 {
		t.Fatalf("consumer saw %d values after asking to stop at 10", got)
	}
	if e := exited.Load(); e != n {
		t.Fatalf("FanOut returned with %d of %d producers still running", n-e, n)
	}
}

// TestFanOutConsumerPanic panics in the consumer while endless producers
// are still emitting and checks that the panic reaches the caller and
// no goroutine is left behind.
func TestFanOutConsumerPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	var exited atomic.Int32
	func() {
		defer func() {
			if recover() == nil {
				t.Error("consumer panic did not reach the caller")
			}
		}()
		FanOut(3, func(i int, emit func(int) bool) {
			defer exited.Add(1)
			for v := 0; emit(v); v++ {
			}
		}, func(v int) bool {
			if v > 100 {
				panic("consumer failed")
			}
			return true
		})
	}()
	if e := exited.Load(); e != 3 {
		t.Fatalf("FanOut unwound with %d of 3 producers exited", e)
	}
	if n := settledGoroutines(before); n > before {
		t.Fatalf("%d goroutines after a consumer panic, %d before", n, before)
	}
}

// TestFanOutPerProducerOrder sends runs long enough to span several
// chunks, with a partial chunk at the end, and checks that each
// producer's values arrive complete and in the order it emitted them.
func TestFanOutPerProducerOrder(t *testing.T) {
	const n, per = 3, 5*Chunk + 7
	next := make([]int, n)
	FanOut(n, func(i int, emit func([2]int) bool) {
		for v := 0; v < per; v++ {
			if !emit([2]int{i, v}) {
				return
			}
		}
	}, func(x [2]int) bool {
		if x[1] != next[x[0]] {
			t.Fatalf("producer %d: got %d, want %d", x[0], x[1], next[x[0]])
		}
		next[x[0]]++
		return true
	})
	for i, v := range next {
		if v != per {
			t.Fatalf("producer %d: delivered %d of %d values", i, v, per)
		}
	}
}

// TestGatherOrder checks that Gather concatenates in producer order.
func TestGatherOrder(t *testing.T) {
	got := Gather(4, func(i int) []int { return []int{i, i} })
	want := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for k := range want {
		if len(got) != len(want) || got[k] != want[k] {
			t.Fatalf("Gather = %v, want %v", got, want)
		}
	}
}
