package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sync/atomic"
	"time"

	"dyncoll/internal/fanout"
)

// This file is the frontend's call engine: every frontend→backend
// request goes through here and picks up the fault-tolerance machinery
// — per-op deadlines derived from the request context, breaker-gated
// replica selection, idempotent retries with capped backoff and jitter,
// hedged reads, and the stream stall watchdog. The handlers above it
// only decide WHAT to ask each assignment row; this layer decides WHOM
// to ask and how hard to try.

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

// replicaWalk is one row read's walk over the row's replica set.
type replicaWalk struct {
	f     *Frontend
	row   int
	tried []bool
	n     int // replicas tried since the last reset
}

// pick returns the first replica not yet tried whose breaker admits a
// request, marked tried, or -1. The breaker slot is consumed: the
// caller MUST settle the chosen backend.
func (s *replicaWalk) pick() int {
	for _, b := range s.f.asg.Replicas(s.row) {
		if !s.tried[b] && s.f.states[b].breaker.Allow() {
			s.tried[b] = true
			s.n++
			return b
		}
	}
	return -1
}

// onRow is the replica loop every row read runs: up to Attempts rounds
// with backoff between them, each on a live replica not yet tried (the
// tried set resets once every replica has been visited, so long outages
// still probe). try performs one attempt on the admitted backend b and
// returns its fault, nil when the row is done, and whether the failure
// may be retried. onRow returns the last fault.
func (f *Frontend) onRow(ctx context.Context, row int, try func(s *replicaWalk, b int) (*backendFault, bool)) *backendFault {
	s := &replicaWalk{f: f, row: row, tried: make([]bool, len(f.backends))}
	var last *backendFault
	for attempt := 0; attempt < f.retry.Attempts; attempt++ {
		if attempt > 0 && !f.backoff(ctx, attempt) {
			break
		}
		if s.n >= len(f.asg.Replicas(row)) {
			clear(s.tried)
			s.n = 0
		}
		b := s.pick()
		if b < 0 {
			// Every admissible replica is breaker-open; a later round's
			// backoff may outlast a cooldown, so keep going.
			last = &backendFault{url: fmt.Sprintf("row %d", row), err: errNoLiveReplica}
			continue
		}
		bf, retry := try(s, b)
		if bf == nil {
			return nil
		}
		last = bf
		if !retry || ctx.Err() != nil {
			break
		}
	}
	return last
}

// backoff counts a retry and sleeps before attempt round attempt; false
// means ctx ended first.
func (f *Frontend) backoff(ctx context.Context, attempt int) bool {
	f.count("retries")
	return sleepCtx(ctx, f.retry.Backoff(attempt, rand.Float64))
}

// attemptOne performs one already-admitted call against backend b under
// the per-op deadline and settles b with the outcome.
func attemptOne[T any](f *Frontend, ctx context.Context, b int, do func(ctx context.Context, b int) (T, error)) (T, *backendFault) {
	actx, cancel := context.WithTimeout(ctx, f.opTimeout)
	defer cancel()
	start := time.Now()
	v, err := do(actx, b)
	return v, f.settle(ctx, b, start, err)
}

// rowGet runs one idempotent JSON read against an assignment row
// through onRow, optionally hedging a slow attempt to a second replica.
// An application error is the row's answer and is not retried —
// retrying a 409 yields a 409. Returns the value, or the zero value and
// the last fault.
func rowGet[T any](f *Frontend, ctx context.Context, row int, hedge bool, do func(ctx context.Context, b int) (T, error)) (T, *backendFault) {
	var out T
	bf := f.onRow(ctx, row, func(s *replicaWalk, b int) (*backendFault, bool) {
		v, bf := hedgedAttempt(f, ctx, s, b, hedge, do)
		if bf == nil {
			out = v
			return nil, false
		}
		return bf, bf.werr == nil
	})
	return out, bf
}

// hedgedAttempt runs do against b1 and, if the reply is slower than the
// hedge delay, races a second copy on another live replica of the walk
// — the classic tail-latency cut: the duplicate read is idempotent,
// whichever answer arrives first wins, and the loser is cancelled
// without being charged to its backend's breaker.
func hedgedAttempt[T any](f *Frontend, ctx context.Context, s *replicaWalk, b1 int, hedge bool, do func(ctx context.Context, b int) (T, error)) (T, *backendFault) {
	var zero T
	delay := time.Duration(-1)
	if hedge {
		delay = f.hedgeDelay()
	}
	if delay < 0 {
		return attemptOne(f, ctx, b1, do)
	}
	type res struct {
		v      T
		bf     *backendFault
		hedged bool
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel() // the winner cancels the loser
	ch := make(chan res, 2)
	inflight := 1
	go func() { v, bf := attemptOne(f, actx, b1, do); ch <- res{v, bf, false} }()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	hedgeC := timer.C
	var first *backendFault
	for {
		select {
		case r := <-ch:
			if r.bf == nil {
				if r.hedged {
					f.count("hedge_wins")
				}
				return r.v, nil
			}
			if first == nil {
				first = r.bf
			}
			inflight--
			if inflight == 0 {
				return zero, first
			}
		case <-hedgeC:
			hedgeC = nil
			if b2 := s.pick(); b2 >= 0 {
				f.count("hedges")
				inflight++
				go func() { v, bf := attemptOne(f, actx, b2, do); ch <- res{v, bf, true} }()
			}
		case <-ctx.Done():
			return zero, &backendFault{url: f.backends[b1], err: ctx.Err()}
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

// streamRow relays one assignment row's NDJSON stream into emit
// through onRow, retrying on a fresh replica only while nothing has
// been emitted — a retry after relayed lines would duplicate them, so a
// mid-stream failure surfaces to the caller instead (the in-band
// trailer's job). A stream's duration is its length, not the backend's
// speed, so it feeds no latency sample. A nil return means the row
// streamed completely or its consumer stopped reading.
func (f *Frontend) streamRow(ctx context.Context, row int, newReq func(ctx context.Context, b int) (*http.Request, error), emit func([]byte) bool) *backendFault {
	return f.onRow(ctx, row, func(_ *replicaWalk, b int) (*backendFault, bool) {
		emitted := false
		err := f.streamOnce(ctx, func(ctx context.Context) (*http.Request, error) { return newReq(ctx, b) }, func(line []byte) bool {
			emitted = true
			return emit(line)
		})
		return f.settle(ctx, b, time.Time{}, err), !emitted
	})
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
	sc.Buffer(make([]byte, 64<<10), 1<<20)
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
			return post(ctx, f.rowURL(b, row, path), parts[row])
		})
		out[k].items = len(parts[row])
	})
	return out
}

// count bumps a fleet-level fault-tolerance counter.
func (f *Frontend) count(name string) { f.met.CounterAdd(name, 1) }
