// Package fanout is the module's fan-out/merge contract: enumerate n
// independent producers in parallel and merge their streams into one
// consumer with propagated early break. The in-process sharding layer
// (dyncoll.WithShards) uses it to merge per-shard query streams; the
// networked frontend (internal/server) uses the identical contract to
// merge per-backend NDJSON streams — a backend is one more shard level,
// so the merge semantics must be the same in both places. team.go runs
// the parts of one ladder on a team of workers under the same contract.
package fanout

import (
	"sync"
	"sync/atomic"
)

// Chunk is the number of values a producer banks locally before one
// channel send hands them to the consumer. A send per value measured as
// a 3–6× serial regression (PR 2); chunking amortizes the
// synchronization to 1/Chunk of a channel op per value while a
// per-value atomic load keeps early break responsive.
const Chunk = 64

// FanOut merges n per-producer enumerations into a single consumer.
// Each producer streams through run(i, emit) in its own goroutine;
// values are banked into small chunks and multiplexed over a channel
// into fn on the caller's goroutine. When fn returns false every
// producer observes the stop flag at its next emit and unwinds.
//
// The deferred epilogue signals stop and then waits for every producer
// to exit before FanOut returns — on normal completion, early break,
// and consumer panic/Goexit alike. The wait matters beyond lock
// hygiene: producers read caller-owned arguments (e.g. a pattern
// slice), so returning while one was still scanning would hand the
// caller back a buffer a goroutine is reading (a data race if the
// caller reuses it). With n == 1 the enumeration runs inline with no
// goroutines or chunking at all.
func FanOut[T any](n int, run func(i int, emit func(T) bool), fn func(T) bool) {
	if n == 1 {
		run(0, fn)
		return
	}
	var stop atomic.Bool        // consumer gone: producers finish at their next emit
	done := make(chan struct{}) // closed with stop; unblocks in-flight chunk sends
	ch := make(chan []T, n)
	var wg sync.WaitGroup
	defer func() {
		stop.Store(true)
		close(done)
		wg.Wait()
	}()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			chunk := make([]T, 0, Chunk)
			flush := func() bool {
				if len(chunk) == 0 {
					return true
				}
				select {
				case ch <- chunk:
					chunk = make([]T, 0, Chunk)
					return true
				case <-done:
					return false
				}
			}
			run(i, func(v T) bool {
				if stop.Load() {
					return false
				}
				chunk = append(chunk, v)
				if len(chunk) == Chunk {
					return flush()
				}
				return true
			})
			flush() // final partial chunk; a refused send means the consumer left
		}(i)
	}
	go func() {
		wg.Wait()
		close(ch)
	}()
	for chunk := range ch {
		for _, v := range chunk {
			if !fn(v) {
				return
			}
		}
	}
}

// ForEach runs fn for producers 0..n-1 concurrently and waits. Like
// FanOut, a single producer runs inline so the n == 1 floor pays no
// goroutine overhead per operation.
func ForEach(n int, fn func(i int)) {
	if n == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// Gather runs collect for every producer concurrently and concatenates
// the per-producer slices (producer order, so the result is
// deterministic given deterministic producers). collect is responsible
// for its own locking.
func Gather[T any](n int, collect func(i int) []T) []T {
	parts := make([][]T, n)
	ForEach(n, func(i int) { parts[i] = collect(i) })
	var out []T
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
