package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// A pass over a ladder's parts — the sub-collections C0, levels and
// tops, each answered alone — runs on a team: the caller plus helpers
// borrowed from one process-wide budget of GOMAXPROCS−1. A helper is
// borrowed without blocking and never waited for: parts are claimed
// through one atomic index, so a helper that starts after the caller has
// claimed the last part finds nothing to do and touches nothing the
// caller owns. A pass too small for a team, or one that finds the budget
// spent, is the one-worker case: the caller visits every part itself,
// in order, and allocates nothing.

// PartsPerWorker is how many parts each worker of a team must have: a
// pass over n parts gets at most ⌊n/PartsPerWorker⌋ workers, so a
// ladder of fewer than 2·PartsPerWorker parts is visited by the caller
// alone. A helper pays only if the caller's solo pass outlasts the
// helper's start-up: n·c > L for parts of cost c. BenchmarkHelperStart
// reads L ≈ 70 µs on a 2-vCPU host whose other core idled for 50 µs
// (130–440 µs after a millisecond), and a part of a quiescent 16 MiB
// ladder costs a Count c ≈ 2–4.5 µs cold, so the break-even is 16–35
// parts: a team first forms at 64, and each helper it adds brings 32
// more parts to amortize its start.
const PartsPerWorker = 32

var (
	helpersOut  atomic.Int32  // helpers borrowed and not yet returned
	teamPasses  atomic.Uint64 // passes that borrowed at least one helper
	helperParts atomic.Uint64 // parts visited by helpers
	// running counts helper goroutines between start and exit, and
	// runningPeak is its high-water mark (read by the budget test).
	running, runningPeak atomic.Int32
)

// TeamCounts are the process-wide team counters: whether reads used a
// second core.
type TeamCounts struct {
	// Passes is the number of passes over parts that borrowed at least
	// one helper.
	Passes uint64 `json:"team_queries"`
	// HelperParts is the number of parts visited by helpers rather than
	// by the querying goroutine.
	HelperParts uint64 `json:"helper_parts"`
}

// ReadTeamCounts reads the team counters.
func ReadTeamCounts() TeamCounts {
	return TeamCounts{Passes: teamPasses.Load(), HelperParts: helperParts.Load()}
}

// borrow takes, without blocking, the helpers a pass over n parts may
// use: up to ⌊n/PartsPerWorker⌋−1, as many as the budget has free. A
// helper's slot is returned when it leaves the pass, or when the pass
// ends before it joined.
func borrow(n int) int {
	want := int32(n/PartsPerWorker - 1)
	if want <= 0 {
		return 0
	}
	limit := int32(runtime.GOMAXPROCS(0) - 1)
	for {
		out := helpersOut.Load()
		got := min(want, limit-out)
		if got <= 0 {
			return 0
		}
		if helpersOut.CompareAndSwap(out, out+got) {
			teamPasses.Add(1)
			return int(got)
		}
	}
}

// started and stopped bracket a helper's work on a pass; stopped
// returns its slot. running's high-water mark is the budget test's.
func started() {
	r := running.Add(1)
	for p := runningPeak.Load(); r > p && !runningPeak.CompareAndSwap(p, r); p = runningPeak.Load() {
	}
}

func stopped() {
	running.Add(-1)
	helpersOut.Add(-1)
}

// A Pass is what the workers of one Reduce share: Fold folds part i
// into a worker's accumulator, and Merge combines two workers'
// accumulators. Fold runs on the caller's goroutine or a helper's, so it
// must touch no state but the pass (read-only) and acc.
type Pass[R any] interface {
	Fold(acc R, i int) R
	Merge(a, b R) R
}

// Reduce folds parts 0..n−1 of pass s on a team. Each worker folds the
// parts it claims into its own accumulator, starting from the zero R;
// the accumulators are merged, in no particular order, before Reduce
// returns. s is passed by value: with no helper nothing escapes, and the
// pass allocates nothing.
func Reduce[R any, S Pass[R]](n int, s S) R {
	h := borrow(n)
	if h == 0 {
		var acc R
		for i := 0; i < n; i++ {
			acc = s.Fold(acc, i)
		}
		return acc
	}
	t := &team[R, S]{s: s, n: int32(n), unjoined: h}
	for range h {
		select {
		case joins <- t:
			go helper()
		default:
			go t.help() // the queue is full: start this one with a closure
		}
	}
	return t.lead()
}

// joins hands each helper its pass, so the go statement that starts one
// captures nothing and allocates nothing: a team pass allocates only its
// team. Every helper started takes exactly one pass, in order, so the
// queue holds only helpers started and not yet run by the scheduler —
// far fewer than 256 unless the process is starved of CPU, and then a
// pass that finds it full starts its helper the costly way.
var joins = make(chan interface{ help() }, 256)

func helper() { (<-joins).help() }

// team is one Reduce pass with helpers. Under mu, a helper joins only
// while the pass is open, and the caller closes it once it has no part
// left to claim: a helper either joins in time to be waited for, or
// finds the pass closed and exits without touching it again — its slot
// was returned at close, so a late helper holds up no later pass.
type team[R any, S Pass[R]] struct {
	s       S
	n       int32
	next    atomic.Int32 // the next unclaimed part
	working atomic.Int32 // helpers that joined and have not left

	mu       sync.Mutex
	closed   bool          // the caller is done claiming: no helper may join
	unjoined int           // borrowed helpers that have not joined
	left     chan struct{} // made by a caller that blocks; closed when working drains
	acc      R             // the accumulators of the helpers that left
}

// spinWait is how long a caller done with its parts spins for the
// helpers' last parts before it blocks. A helper is at most one part
// from done, a few µs; waking a parked goroutine can take longer.
const spinWait = 50 * time.Microsecond

// fold claims parts until none is left and folds them.
func (t *team[R, S]) fold() (acc R, parts int) {
	for i := t.next.Add(1) - 1; i < t.n; i = t.next.Add(1) - 1 {
		acc = t.s.Fold(acc, int(i))
		parts++
	}
	return acc, parts
}

// lead is the caller's share: fold, then wait for the helpers that
// joined — also when part panics, so no helper outlives the pass.
func (t *team[R, S]) lead() R {
	var acc R
	func() {
		defer t.close()
		acc, _ = t.fold()
	}()
	return t.s.Merge(acc, t.acc) // final: every helper that joined has left
}

func (t *team[R, S]) close() {
	t.mu.Lock()
	t.closed = true
	helpersOut.Add(int32(-t.unjoined))
	t.mu.Unlock()
	for start := time.Now(); t.working.Load() > 0; runtime.Gosched() {
		if time.Since(start) > spinWait {
			t.mu.Lock()
			if t.working.Load() == 0 {
				t.mu.Unlock()
				return
			}
			t.left = make(chan struct{})
			t.mu.Unlock()
			<-t.left
			return
		}
	}
}

func (t *team[R, S]) help() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.unjoined--
	t.working.Add(1)
	t.mu.Unlock()
	started()
	defer stopped()
	acc, parts := t.fold()
	helperParts.Add(uint64(parts))
	t.mu.Lock()
	defer t.mu.Unlock()
	if parts > 0 {
		t.acc = t.s.Merge(t.acc, acc)
	}
	if t.working.Add(-1) == 0 && t.left != nil {
		close(t.left)
	}
}

// Stream merges the enumerations visit(i, emit) of parts 0..n−1 into
// fn: the parts are claimed by the producers of one FanOut, one per
// worker, so fn runs on the caller's goroutine. With no helper the
// caller claims every part itself, in order, and emits straight into fn,
// as FanOut(1) does. Once fn returns false no part is claimed.
func Stream[T any](n int, visit func(i int, emit func(T) bool), fn func(T) bool) {
	h := borrow(n)
	if h == 0 {
		var next atomic.Int32
		produce(n, &next, visit, fn)
		return
	}
	next := new(atomic.Int32)
	FanOut(1+h, func(w int, emit func(T) bool) {
		if w == 0 {
			produce(n, next, visit, emit)
			return
		}
		started()
		defer stopped()
		helperParts.Add(uint64(produce(n, next, visit, emit)))
	}, fn)
}

// produce is one Stream worker: it claims parts from next and
// enumerates them into emit until none is left or emit refuses a value,
// and reports how many parts it claimed.
func produce[T any](n int, next *atomic.Int32, visit func(int, func(T) bool), emit func(T) bool) int {
	more := true
	each := func(v T) bool {
		more = emit(v)
		return more
	}
	parts := 0
	for i := next.Add(1) - 1; more && int(i) < n; i = next.Add(1) - 1 {
		visit(int(i), each)
		parts++
	}
	return parts
}
