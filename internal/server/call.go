package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"slices"
	"sync/atomic"
	"time"

	"dyncoll/internal/fanout"
)

// This file is the frontend's call engine: every frontend→backend
// request goes through here and picks up the fault-tolerance machinery
// — per-op deadlines derived from the request context, breaker-gated
// replica selection, idempotent retries with capped backoff and jitter,
// hedged reads, and the stream stall watchdog. The handlers above it
// only decide WHAT to ask; this layer decides WHOM to ask — a read's
// cover, one request per group of rows a live backend hosts together —
// and how hard to try.

var (
	errNoLiveReplica = errors.New("no live replica (all breakers open)")
	errBreakerOpen   = errors.New("circuit breaker open")
)

// wireError is an application-level backend reply (non-2xx with a JSON
// envelope): the transport worked and the backend answered, so it never
// trips a breaker and is never retried — retrying a 409 yields a 409.
type wireError struct {
	status int
	resp   *ErrorResponse
}

func (e *wireError) Error() string {
	return fmt.Sprintf("%s (status %d)", e.resp.Message, e.status)
}

// backendState is the frontend's routing-side health record for one
// backend: the breaker that gates traffic to it plus failure totals.
type backendState struct {
	breaker *Breaker
	fails   atomic.Int64 // transport failures, lifetime
}

// settle records one attempt's outcome on backend b — the rule every
// backend call follows. A reply, success or application error, is a
// health success and, when start is set, a latency sample for the
// adaptive hedge delay; a caller that gave up (client disconnect, or a
// hedge already won) cancels the breaker slot without blame; anything
// else is a transport failure charged to b. It returns the attempt's
// fault, nil on success.
func (f *Frontend) settle(ctx context.Context, b int, start time.Time, err error) *backendFault {
	st := f.states[b]
	var we *wireError
	switch {
	case err == nil || errors.As(err, &we):
		st.breaker.Success()
		if !start.IsZero() {
			f.beLat.Observe(time.Since(start))
		}
		if we != nil {
			return &backendFault{url: f.backends[b], status: we.status, werr: we.resp}
		}
		return nil
	case ctx.Err() != nil:
		st.breaker.Cancel()
	default:
		st.breaker.Failure()
		st.fails.Add(1)
	}
	return &backendFault{url: f.backends[b], err: err}
}

// group is one request of a read's cover: the rows backend b answers
// together, as the union of their collections. A group with b < 0
// holds rows that no admissible backend hosts.
type group struct {
	b    int
	rows []int
}

// coverWalk is one read's state over the assignment: which replicas
// each row has tried since the row's last reset, and each row's last
// fault. Concurrent groups of one walk hold disjoint rows, so each
// touches only its own rows' entries.
type coverWalk struct {
	f      *Frontend
	tried  []bool          // row*len(backends) + b
	faults []*backendFault // per row; nil once the row is answered
}

func (f *Frontend) newWalk() *coverWalk {
	return &coverWalk{
		f:      f,
		tried:  make([]bool, f.asg.Rows()*len(f.backends)),
		faults: make([]*backendFault, f.asg.Rows()),
	}
}

// cover plans one request per group of the asked rows, greedily over
// the whole table: the backend hosting the most rows still unplaced,
// among those not yet tried for them, ties to the lowest index, takes
// them all, until every row is placed or no backend is left; a group is
// a placement's asked rows. Only asked rows consult their tried sets:
// the others belong to no attempt of this walk, or to a concurrent
// group's. A backend that receives asked rows must admit a request
// through its breaker — the slot is consumed and the backend marked
// tried for them, so the caller MUST settle (or release) every group —
// and one that would receive only other rows is judged by its breaker
// state. Asked rows no admissible backend hosts come back as one group
// with b = -1. A row's replica thus depends on the table, the breakers
// and its own tried set, not on which other rows a read asks for: while
// nothing fails, count, find, search and extract all read a row from
// the same replica.
func (w *coverWalk) cover(rows []int) []group {
	nb := len(w.f.backends)
	asked := make([]bool, w.f.asg.Rows())
	for _, row := range rows {
		asked[row] = true
	}
	left := slices.Clone(w.f.all)
	refused := make([]bool, nb)
	hosts := make([]int, nb)
	tried := func(row, b int) bool { return asked[row] && w.tried[row*nb+b] }
	var out []group
	for len(left) > 0 {
		clear(hosts)
		for _, row := range left {
			for _, b := range w.f.asg.Replicas(row) {
				if !refused[b] && !tried(row, b) {
					hosts[b]++
				}
			}
		}
		best := -1
		for b, n := range hosts {
			if n > 0 && (best < 0 || n > hosts[best]) {
				best = b
			}
		}
		if best < 0 {
			break
		}
		takes := func(row int) bool {
			return !tried(row, best) && slices.Contains(w.f.asg.Replicas(row), best)
		}
		serves := slices.ContainsFunc(left, func(row int) bool { return asked[row] && takes(row) })
		if serves && !w.f.states[best].breaker.Allow() || !serves && w.f.states[best].breaker.State() != BreakerClosed {
			refused[best] = true
			continue
		}
		g := group{b: best}
		rest := left[:0]
		for _, row := range left {
			switch {
			case !takes(row):
				rest = append(rest, row)
			case asked[row]:
				w.tried[row*nb+best] = true
				g.rows = append(g.rows, row)
			}
		}
		if serves {
			out = append(out, g)
		}
		left = rest
	}
	var stranded []int
	for _, row := range left {
		if asked[row] {
			stranded = append(stranded, row)
		}
	}
	if stranded != nil {
		out = append(out, group{b: -1, rows: stranded})
	}
	return out
}

// release undoes cover for groups that will not be sent: each breaker
// slot is cancelled and the rows may try the backend again.
func (w *coverWalk) release(groups []group) {
	nb := len(w.f.backends)
	for _, g := range groups {
		if g.b < 0 {
			continue
		}
		w.f.states[g.b].breaker.Cancel()
		for _, row := range g.rows {
			w.tried[row*nb+g.b] = false
		}
	}
}

// plan starts a round over rows: a row that has tried every replica
// starts over (so long outages still probe), then the rows are covered.
func (w *coverWalk) plan(rows []int) []group {
	nb := len(w.f.backends)
	for _, row := range rows {
		tried := w.tried[row*nb : (row+1)*nb]
		if !slices.ContainsFunc(w.f.asg.Replicas(row), func(b int) bool { return !tried[b] }) {
			clear(tried)
		}
	}
	return w.cover(rows)
}

// run is the replica loop every read runs, for one group of a cover
// from round attempt on: one attempt on the group's backend, and — when
// try allows it — a backoff and a new round that re-covers exactly the
// group's rows over replicas not yet tried, running the resulting
// groups in turn, until the rows are answered or Attempts rounds are
// spent. try performs one attempt on an admitted group and returns its
// fault, nil when the rows are answered, and whether they may be
// retried. Each row's outcome lands in w.faults.
func (w *coverWalk) run(ctx context.Context, g group, attempt int, try func(g group) (*backendFault, bool)) {
	// Rows no admissible replica hosts retry too: a later round's
	// backoff may outlast a breaker's cooldown.
	var bf *backendFault
	retry := true
	if g.b >= 0 {
		bf, retry = try(g)
	} else {
		bf = &backendFault{url: fmt.Sprintf("rows %v", g.rows), err: errNoLiveReplica}
	}
	for _, row := range g.rows {
		w.faults[row] = bf
	}
	if bf == nil || !retry || ctx.Err() != nil || attempt+1 >= w.f.retry.Attempts || !w.f.backoff(ctx, attempt+1) {
		return
	}
	for _, sub := range w.plan(g.rows) {
		w.run(ctx, sub, attempt+1, try)
	}
}

// backoff counts a retry and sleeps before attempt round attempt; false
// means ctx ended first.
func (f *Frontend) backoff(ctx context.Context, attempt int) bool {
	f.count("retries")
	return sleepCtx(ctx, f.retry.Backoff(attempt, rand.Float64))
}

// attemptOne performs one already-admitted call for group g under the
// per-op deadline and settles g's backend with the outcome.
func attemptOne[T any](f *Frontend, ctx context.Context, g group, do func(ctx context.Context, g group) (T, error)) (T, *backendFault) {
	actx, cancel := context.WithTimeout(ctx, f.opTimeout)
	defer cancel()
	start := time.Now()
	v, err := do(actx, g)
	return v, f.settle(ctx, g.b, start, err)
}

// readJSON answers rows with one idempotent JSON read per group of
// their cover, groups in parallel, each optionally hedged: do performs
// one request for a group on its backend, and got receives every
// answered group's value, possibly concurrently. An application error
// is the rows' answer and is not retried — retrying a 409 yields a 409.
// It returns each row's fault, indexed by row: nil for answered rows
// and for rows not asked.
func readJSON[T any](f *Frontend, ctx context.Context, rows []int, hedge bool, do func(ctx context.Context, g group) (T, error), got func(T)) []*backendFault {
	w := f.newWalk()
	groups := w.plan(rows)
	fanout.ForEach(len(groups), func(i int) {
		w.run(ctx, groups[i], 0, func(g group) (*backendFault, bool) {
			vs, bf := hedgedAttempt(f, ctx, w, g, hedge, do)
			if bf != nil {
				return bf, bf.werr == nil
			}
			for _, v := range vs {
				got(v)
			}
			return nil, false
		})
	})
	return w.faults
}

// hedgedAttempt runs do for group g and, if the reply is slower than the
// hedge delay, races a second cover of g's rows over live replicas not
// yet tried — the classic tail-latency cut: the duplicate reads are
// idempotent, whichever alternative answers every row first wins, and
// the losers are cancelled without being charged to their backends'
// breakers. No hedge is sent unless the second cover reaches every row,
// since a group's answer is one union and cannot be assembled from
// parts of two covers. It returns the winning alternative's values.
func hedgedAttempt[T any](f *Frontend, ctx context.Context, w *coverWalk, g group, hedge bool, do func(ctx context.Context, g group) (T, error)) ([]T, *backendFault) {
	delay := time.Duration(-1)
	if hedge {
		delay = f.hedgeDelay()
	}
	if delay < 0 {
		v, bf := attemptOne(f, ctx, g, do)
		if bf != nil {
			return nil, bf
		}
		return []T{v}, nil
	}
	type res struct {
		v      T
		bf     *backendFault
		hedged bool
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel() // the winner cancels the losers
	// Room for every send — the first request and at most one hedge per
	// row — so a loser never blocks after the winner returned.
	ch := make(chan res, 1+len(g.rows))
	launch := func(h group, hedged bool) {
		go func() { v, bf := attemptOne(f, actx, h, do); ch <- res{v, bf, hedged} }()
	}
	launch(g, false)
	timer := time.NewTimer(delay)
	defer timer.Stop()
	hedgeC := timer.C
	var first *backendFault
	var parts []T                // the hedge's answers so far
	origLive, pending := true, 0 // pending > 0: hedge requests in flight, none failed
	for {
		select {
		case r := <-ch:
			switch {
			case r.hedged && pending == 0:
				continue // part of a hedge that already lost
			case r.bf == nil && !r.hedged:
				return []T{r.v}, nil
			case r.bf == nil:
				parts = append(parts, r.v)
				if pending--; pending == 0 {
					f.count("hedge_wins")
					return parts, nil
				}
				continue
			case r.hedged:
				pending = 0
			default:
				origLive = false
			}
			if first == nil {
				first = r.bf
			}
			if !origLive && pending == 0 {
				return nil, first
			}
		case <-hedgeC:
			hedgeC = nil
			hs := w.cover(g.rows)
			if hs[len(hs)-1].b < 0 {
				w.release(hs)
				continue
			}
			f.met.CounterAdd("hedges", int64(len(hs)))
			pending = len(hs)
			for _, h := range hs {
				launch(h, true)
			}
		case <-ctx.Done():
			return nil, &backendFault{url: f.backends[g.b], err: ctx.Err()}
		}
	}
}

// hedgeDelay resolves the hedge trigger: the configured fixed delay, or
// (when configured as 0, the default) the adaptive p99 of observed
// backend-call latency, clamped to [2ms, OpTimeout/2] so cold starts
// and outlier-free histograms still hedge sensibly. Negative disables
// hedging.
func (f *Frontend) hedgeDelay() time.Duration {
	d := f.cfg.HedgeDelay
	if d < 0 {
		return -1
	}
	if d == 0 {
		d = f.beLat.Quantile(0.99)
	}
	if lo := 2 * time.Millisecond; d < lo {
		d = lo
	}
	if hi := f.opTimeout / 2; d > hi {
		d = hi
	}
	return d
}

// streamRows relays every assignment row's NDJSON stream into fn, one
// request per group of the rows' cover, the groups' lines merged
// through fanout.FanOut. A group retries — re-covering its rows on
// fresh replicas — only while it has emitted nothing, since a retry
// after relayed lines would duplicate them, so a mid-stream failure
// surfaces to the caller instead (the in-band trailer's job). A
// stream's duration is its length, not the backend's speed, so it
// feeds no latency sample. It returns each row's fault; a nil fault
// means the row streamed completely or its consumer stopped reading.
func (f *Frontend) streamRows(ctx context.Context, newReq func(ctx context.Context, g group) (*http.Request, error), fn func([]byte) bool) []*backendFault {
	w := f.newWalk()
	groups := w.plan(f.all)
	fanout.FanOut(len(groups), func(i int, emit func([]byte) bool) {
		cctx, cancel := context.WithCancel(ctx)
		defer cancel() // early break → cancel → backend stops enumerating
		w.run(cctx, groups[i], 0, func(g group) (*backendFault, bool) {
			emitted := false
			err := f.streamOnce(cctx, func(ctx context.Context) (*http.Request, error) { return newReq(ctx, g) }, func(line []byte) bool {
				emitted = true
				return emit(line)
			})
			return f.settle(cctx, g.b, time.Time{}, err), !emitted
		})
	}, fn)
	return w.faults
}

// streamOnce streams one backend response line by line under a stall
// watchdog: the per-op timeout applies to PROGRESS, not the whole
// stream, so an arbitrarily long healthy stream flows freely while a
// black-holed connection is detected one deadline after its last line.
func (f *Frontend) streamOnce(ctx context.Context, newReq func(ctx context.Context) (*http.Request, error), perLine func([]byte) bool) error {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var stalled atomic.Bool
	wd := time.AfterFunc(f.opTimeout, func() { stalled.Store(true); cancel() })
	defer wd.Stop()
	req, err := newReq(cctx)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		if stalled.Load() {
			return fmt.Errorf("no response in %v: %w", f.opTimeout, err)
		}
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	// The buffer starts at the scanner's 4 KiB and grows on demand:
	// result lines are tens of bytes, and a 64 KiB buffer per stream was
	// a quarter of the frontend's allocated bytes.
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		wd.Reset(f.opTimeout)
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		// Copy: the scanner reuses its buffer and the fan-out banks
		// lines in chunks before the consumer sees them.
		line := append([]byte(nil), sc.Bytes()...)
		if !perLine(line) {
			return nil // consumer early break: the stream was healthy
		}
	}
	if err := sc.Err(); err != nil {
		if stalled.Load() {
			return fmt.Errorf("stream stalled > %v", f.opTimeout)
		}
		return err
	}
	return nil
}

// rowWrite is one row's share of a write: how many items it carried,
// the fault to report (nil once every replica applied it), whether some
// replica applied it anyway, and the largest count a replica reported.
type rowWrite struct {
	items  int
	fault  *backendFault
	someOK bool
	count  int
}

// writeRow applies one write to every replica of an assignment row in
// parallel (quorum = all: a write is acked only when every replica
// applied it, which is what entitles a read to trust any single live
// replica). An open breaker fails that replica in O(1); transport
// failures retry only when shouldRetry says the attempt is safe for
// this operation — a non-idempotent insert whose connection died after
// the request may have been applied, so it is surfaced, never resent.
func (f *Frontend) writeRow(ctx context.Context, row int, idempotent bool, post func(ctx context.Context, b int) (int, error)) rowWrite {
	replicas := f.asg.Replicas(row)
	counts := make([]int, len(replicas))
	faults := make([]*backendFault, len(replicas))
	fanout.ForEach(len(replicas), func(i int) {
		b := replicas[i]
		for attempt := 1; ; attempt++ {
			if !f.states[b].breaker.Allow() {
				faults[i] = &backendFault{url: f.backends[b], err: errBreakerOpen}
				return
			}
			actx, cancel := context.WithTimeout(ctx, f.opTimeout)
			n, err := post(actx, b)
			cancel()
			counts[i], faults[i] = n, f.settle(ctx, b, time.Time{}, err)
			if faults[i] == nil || faults[i].werr != nil || attempt >= f.retry.Attempts ||
				!shouldRetry(ctx, idempotent, err) || !f.backoff(ctx, attempt) {
				return
			}
		}
	})
	var rw rowWrite
	for i, bf := range faults {
		if bf != nil {
			rw.fault = preferFault(rw.fault, bf)
		} else {
			rw.someOK = true
			rw.count = max(rw.count, counts[i])
		}
	}
	return rw
}

// writeSplit splits items by owning assignment row and writes each
// row's part to every replica of the row, rows in parallel: post sends
// one part to the backend URL for path and returns the count the
// backend reported. The results list the rows that received items, in
// row order.
func writeSplit[T any](f *Frontend, ctx context.Context, path string, items []T, key func(T) uint64, idempotent bool,
	post func(ctx context.Context, url string, part []T) (int, error)) []rowWrite {
	parts := make([][]T, f.asg.Rows())
	for _, it := range items {
		row := f.asg.RowOf(key(it))
		parts[row] = append(parts[row], it)
	}
	var involved []int
	for row, part := range parts {
		if part != nil {
			involved = append(involved, row)
		}
	}
	out := make([]rowWrite, len(involved))
	fanout.ForEach(len(involved), func(k int) {
		row := involved[k]
		out[k] = f.writeRow(ctx, row, idempotent, func(ctx context.Context, b int) (int, error) {
			return post(ctx, f.rowsURL(b, []int{row}, path), parts[row])
		})
		out[k].items = len(parts[row])
	})
	return out
}

// count bumps a fleet-level fault-tolerance counter.
func (f *Frontend) count(name string) { f.met.CounterAdd(name, 1) }
