package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dyncoll/internal/fanout"
	"dyncoll/internal/query"
	"dyncoll/internal/shardmap"
)

// Frontend is the stateless query router over a replicated fleet. The
// assignment table NewAssignment(n, R) maps every document ID to an
// assignment row — one of the paper's sub-collections — and every row
// to its ordered replica set of R backends; every backend request names
// its rows with ?range=. Writes go to ALL replicas of the
// owning row (quorum = all), reads to any single live replica per row,
// and un-routable queries fan out over a cover of the rows: one request
// per group of rows that one live backend hosts together, merging the
// groups' NDJSON streams through the same fanout contract the
// in-process sharding layer uses. Placement is a pure function of the
// key, the backend count and R, so any number of frontend replicas
// handed the same backends and R agree with no coordination.
//
// Every backend call runs through the call engine (call.go): per-op
// deadline, circuit-breaker gating, idempotent retries with backoff,
// and hedged reads for ranked/count calls.
type Frontend struct {
	backends  []string // normalized base URLs, index = backend number
	asg       shardmap.Assignment
	all       []int // every assignment row: what a fan-out read covers
	cfg       FrontendConfig
	opTimeout time.Duration
	retry     RetryPolicy
	client    *http.Client
	met       *Metrics
	states    []*backendState
	beLat     Histogram // per backend-call latency; feeds the adaptive hedge delay
}

// FrontendConfig tunes a frontend. The zero value (plus Backends) is a
// production-shaped default: replication 1, 5s per-op deadline, 3
// attempts with 50ms–2s backoff, breakers tripping after 3 consecutive
// failures with a 2s cooldown, adaptive hedging.
type FrontendConfig struct {
	// Backends are the backend addresses (host:port or http:// URLs).
	// The order is the placement domain: every frontend replica must be
	// handed the same list in the same order.
	Backends []string
	// Replication is the replica count R per assignment row of the table
	// NewAssignment(len(Backends), R); ≤ 1 means one replica per row.
	Replication int
	// OpTimeout is the per-backend-call deadline, and doubles as the
	// stream stall watchdog (progress deadline per NDJSON line). ≤ 0
	// selects 5s.
	OpTimeout time.Duration
	// Retry tunes the retry loop (see RetryPolicy).
	Retry RetryPolicy
	// Breaker tunes the per-backend circuit breakers (see BreakerConfig).
	Breaker BreakerConfig
	// HedgeDelay controls hedged reads on ranked/count calls: 0 (the
	// default) hedges adaptively at the observed p99 backend latency,
	// a positive value hedges after that fixed delay, negative disables
	// hedging.
	HedgeDelay time.Duration
}

// NewFrontendConfig builds a frontend from an explicit configuration.
func NewFrontendConfig(cfg FrontendConfig) (*Frontend, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("server: frontend needs at least one backend")
	}
	norm := make([]string, len(cfg.Backends))
	for i, b := range cfg.Backends {
		b = strings.TrimRight(strings.TrimSpace(b), "/")
		if b == "" {
			return nil, fmt.Errorf("server: empty backend address at position %d", i)
		}
		if !strings.Contains(b, "://") {
			b = "http://" + b
		}
		norm[i] = b
	}
	asg := shardmap.NewAssignment(len(norm), cfg.Replication)
	f := &Frontend{
		backends:  norm,
		asg:       asg,
		all:       make([]int, asg.Rows()),
		cfg:       cfg,
		opTimeout: cfg.OpTimeout,
		retry:     cfg.Retry.withDefaults(),
		// Connection pooling matters here: every query opens one request
		// per group of its cover, so idle conns per host must cover the
		// fan-out.
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}},
		met:    NewMetrics(apiOps...),
		states: make([]*backendState, len(norm)),
	}
	if f.opTimeout <= 0 {
		f.opTimeout = 5 * time.Second
	}
	for i := range f.states {
		f.states[i] = &backendState{breaker: NewBreaker(cfg.Breaker)}
	}
	for row := range f.all {
		f.all[row] = row
	}
	return f, nil
}

// Backends returns the normalized backend base URLs.
func (f *Frontend) Backends() []string { return f.backends }

// Assignment returns the placement table the frontend routes by.
func (f *Frontend) Assignment() shardmap.Assignment { return f.asg }

// Metrics returns the frontend's request metrics.
func (f *Frontend) Metrics() *Metrics { return f.met }

// Handler returns the frontend's route table — the same API surface as
// a backend, so clients need not care which role they talk to.
func (f *Frontend) Handler() http.Handler {
	mux := newMux(f.met, f)
	mux.HandleFunc("GET /v1/assignment", f.handleAssignment)
	return mux
}

// rowsURL addresses path (with its query string, if any) on backend b,
// scoped to rows by one ?range= per row.
func (f *Frontend) rowsURL(b int, rows []int, path string) string {
	u := f.backends[b] + path
	sep := "?"
	if strings.Contains(path, "?") {
		sep = "&"
	}
	for _, row := range rows {
		u += sep + "range=" + strconv.Itoa(row)
		sep = "&"
	}
	return u
}

// callJSON sends one JSON request to a backend — a POST of body, or a
// GET when body is nil — and decodes the 200 reply into out; a
// *json.RawMessage receives the reply's bytes unparsed. Any other
// status comes back as a *wireError carrying the backend's envelope,
// the shape settle classifies as an answer, not a transport failure.
func (f *Frontend) callJSON(ctx context.Context, url string, body, out any) error {
	method, rd := http.MethodGet, io.Reader(nil)
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		method, rd = http.MethodPost, bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e ErrorResponse
		if json.NewDecoder(resp.Body).Decode(&e) != nil || e.Error == "" {
			e = ErrorResponse{Error: CodeInternal, Message: fmt.Sprintf("backend returned status %d", resp.StatusCode)}
		}
		return &wireError{status: resp.StatusCode, resp: &e}
	}
	if raw, ok := out.(*json.RawMessage); ok {
		// A reply over the cap is refused, never relayed cut: a truncated
		// body would reach the client as a 200 that does not parse. The
		// refusal is an answer — the backend is healthy, and every
		// replica holds the same oversized reply.
		if *raw, err = io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes+1)); err == nil && len(*raw) > maxBodyBytes {
			*raw = nil
			return &wireError{status: http.StatusBadGateway, resp: &ErrorResponse{Error: CodeInternal,
				Message: fmt.Sprintf("backend reply exceeds the %d MiB relay limit; extract a shorter range", maxBodyBytes>>20)}}
		}
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// backendFault is one backend's failure during a fan-out or split.
type backendFault struct {
	url    string
	status int
	werr   *ErrorResponse
	err    error
}

func (bf *backendFault) message() string {
	if bf.err != nil {
		return fmt.Sprintf("backend %s: %v", bf.url, bf.err)
	}
	return fmt.Sprintf("backend %s: %s", bf.url, bf.werr.Message)
}

// writeFault maps a backend fault onto the frontend's reply: transport
// errors become 502 backend_unreachable; application errors keep their
// backend status and code. The message is the fault's, then note.
func writeFault(w http.ResponseWriter, bf *backendFault, note string) {
	status, code := http.StatusBadGateway, CodeUnreachable
	if bf.err == nil {
		status, code = bf.status, bf.werr.Error
	}
	writeError(w, status, code, bf.message()+note)
}

// rowFaults applies the rule count and ranked search share to the rows
// that did not answer. By default one missing row fails the reply — a
// sum or a top-k list without one row's documents is indistinguishable
// from a correct one, which is worse than unavailable — so rowFaults
// writes the fault and returns false. With ?partial=true the reply goes
// on over the live rows, and fault and failed label what was left out.
func rowFaults(w http.ResponseWriter, r *http.Request, faults []*backendFault) (fault *backendFault, failed []string, ok bool) {
	for row, bf := range faults {
		if bf != nil {
			failed = append(failed, fmt.Sprintf("row %d: %s", row, bf.message()))
			fault = preferFault(fault, bf)
		}
	}
	if fault != nil && !boolParam(r.URL.Query().Get("partial")) {
		writeFault(w, fault, "")
		return nil, nil, false
	}
	return fault, failed, true
}

// preferFault picks the fault to report: an application error (it names
// the real cause — a duplicate ID beats "connection refused") over a
// transport error, else the first seen.
func preferFault(cur, next *backendFault) *backendFault {
	if next == nil {
		return cur
	}
	if cur == nil || (cur.werr == nil && next.werr != nil) {
		return next
	}
	return cur
}

// handleInsert validates the whole batch up front (in-batch duplicate
// IDs, reserved bytes — the common failure modes reject before any
// backend is touched), then writes each row's part to ALL of its
// replicas. A row is acked only when every replica applied it; on any
// failure the reply says exactly how many documents were fully acked
// and how many sit in failed rows — partial application is reported,
// never silent.
func (f *Frontend) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req InsertRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Docs) == 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "empty docs batch")
		return
	}
	seen := make(map[uint64]bool, len(req.Docs))
	for _, d := range req.Docs {
		if seen[d.ID] {
			writeError(w, http.StatusConflict, CodeDuplicateID,
				fmt.Sprintf("id %d repeated within the batch", d.ID))
			return
		}
		seen[d.ID] = true
		if bytes.IndexByte(d.Payload(), 0) >= 0 {
			writeError(w, http.StatusBadRequest, CodeReservedByte,
				fmt.Sprintf("document %d contains the reserved byte 0x00", d.ID))
			return
		}
	}
	rows := writeSplit(f, r.Context(), "/v1/insert", req.Docs, func(d DocJSON) uint64 { return d.ID }, false,
		func(ctx context.Context, url string, part []DocJSON) (int, error) {
			var out InsertResponse
			err := f.callJSON(ctx, url, InsertRequest{Docs: part}, &out)
			return out.Inserted, err
		})
	acked, failed := 0, 0
	partial := false
	var fault *backendFault
	for _, rw := range rows {
		if rw.fault == nil {
			acked += rw.items
			continue
		}
		failed += rw.items
		partial = partial || rw.someOK
		fault = preferFault(fault, rw.fault)
	}
	if fault != nil {
		note := ""
		if acked > 0 || partial {
			note = fmt.Sprintf("; %d document(s) acked on all replicas, %d in failed row(s)", acked, failed)
			if partial {
				note += " (some applied to only part of their replica set)"
			}
		}
		writeFault(w, fault, note)
		return
	}
	writeJSON(w, http.StatusOK, InsertResponse{Inserted: acked})
}

// handleDelete deletes each ID from every replica of its row. Deletion
// is idempotent (absent IDs are skipped), so the engine may retry any
// transport failure; the reported count per row is the maximum over its
// replicas (a replica that missed the original insert deletes fewer —
// the max is what left the logical collection).
func (f *Frontend) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req DeleteRequest
	if !decodeBody(w, r, &req) {
		return
	}
	rows := writeSplit(f, r.Context(), "/v1/delete", req.IDs, func(id uint64) uint64 { return id }, true,
		func(ctx context.Context, url string, part []uint64) (int, error) {
			var out DeleteResponse
			err := f.callJSON(ctx, url, DeleteRequest{IDs: part}, &out)
			return out.Deleted, err
		})
	deleted := 0
	for _, rw := range rows {
		if rw.fault != nil {
			writeFault(w, rw.fault, "")
			return
		}
		deleted += rw.count
	}
	writeJSON(w, http.StatusOK, DeleteResponse{Deleted: deleted})
}

// handleFind fans the query out one request per group of the rows'
// cover and merges the NDJSON streams through relay; each group's limit
// mirrors the merged limit, since no part can satisfy more than the
// whole query needs.
func (f *Frontend) handleFind(w http.ResponseWriter, r *http.Request) {
	pattern, ok := queryPattern(w, r)
	if !ok {
		return
	}
	limit, ok := queryLimit(w, r)
	if !ok {
		return
	}
	path := "/v1/find?q=" + url.QueryEscape(string(pattern))
	if limit > 0 {
		path += "&limit=" + strconv.Itoa(limit)
	}
	n := f.relay(w, r, limit, func(ctx context.Context, g group) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, f.rowsURL(g.b, g.rows, path), nil)
	}, func(msg string) any { return FindResult{Err: msg, Partial: true} })
	f.met.AddStreamed("find", n)
}

// handleSearch runs a search plan over the fleet. The spec travels to
// the backend of every group of the rows' cover verbatim (wire-level
// plan serialization: each backend compiles and executes the same plan
// the frontend's client sent over the union of the group's rows), and
// only the merge differs by variant — the union-over-sub-collections
// contract with the fleet as the outermost union. Unranked group
// streams merge through relay exactly like find's, bounded by the
// plan's k. A ranked plan reads each group's exact local top-k list
// (hedged; at most k documents — the fleet transfers O(groups·k)
// results, never the full match set), and MergeRanked merges the lists
// into the exact global top-k. A row fault fails a ranked query by the
// rule count follows (rowFaults).
func (f *Frontend) handleSearch(w http.ResponseWriter, r *http.Request) {
	p, ok := parseSearchSpec(w, r)
	if !ok {
		return
	}
	raw, err := json.Marshal(p.Spec())
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	newReq := func(ctx context.Context, g group) (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.rowsURL(g.b, g.rows, "/v1/search"), bytes.NewReader(raw))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return req, err
	}
	if !p.Ranked() {
		n := f.relay(w, r, p.K(), newReq, func(msg string) any { return SearchResult{Err: msg, Partial: true} })
		f.met.AddStreamed("search", n)
		return
	}
	var mu sync.Mutex
	var lists [][]query.Match
	faults := readJSON(f, r.Context(), f.all, true, func(ctx context.Context, g group) ([]query.Match, error) {
		return f.collectSearch(ctx, func(ctx context.Context) (*http.Request, error) { return newReq(ctx, g) })
	}, func(list []query.Match) {
		mu.Lock()
		lists = append(lists, list)
		mu.Unlock()
	})
	fault, failed, ok := rowFaults(w, r, faults)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	n := 0
	write := ndjsonLines(w, r, &n, enc.Encode)
	query.MergeRanked(lists, p.K(), func(m query.Match) bool {
		return write(SearchResult{Doc: m.Doc, Off: m.Off, Len: m.Len, Score: m.Score})
	})
	if fault != nil {
		enc.Encode(SearchResult{Err: fmt.Sprintf("%s (%d row(s) failed)", fault.message(), len(failed)), Partial: true})
	}
	f.met.AddStreamed("search", n)
}

// relay fans one request per group of the rows' cover out — each
// group's stream served by one live replica that hosts all its rows,
// retried on fresh replicas while nothing was emitted — and relays the
// merged NDJSON lines to the client as they arrive, flushing every
// fanout.Chunk lines. Early break propagates in both directions: when
// the client disconnects or limit lines (0 = unlimited) were relayed,
// every group request is cancelled, which each backend observes as a
// client disconnect and stops its enumeration — the in-process
// early-break contract, lifted to processes.
//
// A row that fails after its stream started cannot change the
// already-streaming 200 status; the failure is reported in-band as a
// final NDJSON line, built by trailer, with "error" set and
// "partial":true. With nothing streamed yet the reply is a real 502 —
// unless the client opted into degraded reads with ?partial=true, in
// which case whatever the live rows produced is served, with the same
// explicit trailer. relay returns the number of lines relayed.
func (f *Frontend) relay(w http.ResponseWriter, r *http.Request, limit int,
	newReq func(ctx context.Context, g group) (*http.Request, error), trailer func(msg string) any) int {
	partialOK := boolParam(r.URL.Query().Get("partial"))
	w.Header().Set("Content-Type", "application/x-ndjson")
	ctx := r.Context()
	n := 0
	write := ndjsonLines(w, r, &n, func(line []byte) error {
		_, err := w.Write(append(line, '\n'))
		return err
	})
	faults := f.streamRows(ctx, newReq, func(line []byte) bool { return write(line) && (limit == 0 || n < limit) })
	var first *backendFault
	failures := 0
	for _, bf := range faults {
		if bf != nil {
			if first == nil {
				first = bf
			}
			failures++
		}
	}
	if first != nil && ctx.Err() == nil {
		if n == 0 && !partialOK {
			writeError(w, http.StatusBadGateway, CodeUnreachable, first.message())
			return n
		}
		json.NewEncoder(w).Encode(trailer(fmt.Sprintf("%s (%d row(s) failed)", first.message(), failures)))
	}
	return n
}

// collectSearch gathers one row's exact local top-k list (bounded: at
// most k lines travel), read by the same stream reader the relay uses.
func (f *Frontend) collectSearch(ctx context.Context, newReq func(ctx context.Context) (*http.Request, error)) ([]query.Match, error) {
	var out []query.Match
	var bad error
	err := f.streamOnce(ctx, newReq, func(line []byte) bool {
		var m query.Match
		if bad = json.Unmarshal(line, &m); bad != nil {
			return false
		}
		out = append(out, m)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, bad
}

// handleCount asks the backend of each group of the rows' cover for the
// group's count (hedged) and sums, under the fault and ?partial rule
// ranked search follows (rowFaults): a partial count is served only on
// request, labeled with what failed.
func (f *Frontend) handleCount(w http.ResponseWriter, r *http.Request) {
	pattern, ok := queryPattern(w, r)
	if !ok {
		return
	}
	path := "/v1/count?q=" + url.QueryEscape(string(pattern))
	var total atomic.Int64
	faults := readJSON(f, r.Context(), f.all, true, func(ctx context.Context, g group) (int, error) {
		var out CountResponse
		err := f.callJSON(ctx, f.rowsURL(g.b, g.rows, path), nil, &out)
		return out.Count, err
	}, func(n int) { total.Add(int64(n)) })
	fault, failed, ok := rowFaults(w, r, faults)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, CountResponse{Count: int(total.Load()), Partial: fault != nil, Failed: failed})
}

// handleExtract routes to the owning row and reads the document from
// any live replica through the retry path — a cover of one row. The
// backend request carries id, off and len only — the row is the
// frontend's to choose — and the backend's reply, document or error
// envelope, is relayed undecoded; a reply over maxBodyBytes is refused
// rather than relayed cut.
func (f *Frontend) handleExtract(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	id, err := strconv.ParseUint(q.Get("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "id must be a uint64")
		return
	}
	row := f.asg.RowOf(id)
	path := "/v1/extract?" + url.Values{"id": {q.Get("id")}, "off": {q.Get("off")}, "len": {q.Get("len")}}.Encode()
	var v json.RawMessage
	bf := readJSON(f, r.Context(), []int{row}, false, func(ctx context.Context, g group) (json.RawMessage, error) {
		var out json.RawMessage
		err := f.callJSON(ctx, f.rowsURL(g.b, g.rows, path), nil, &out)
		return out, err
	}, func(out json.RawMessage) { v = out })[row]
	switch {
	case bf == nil:
		w.Header().Set("Content-Type", "application/json")
		w.Write(v)
	case bf.werr != nil:
		writeJSON(w, bf.status, bf.werr)
	case r.Context().Err() == nil:
		writeFault(w, bf, "")
	}
}

// handleAssignment serves the placement table verbatim: operators and
// sibling frontends can fetch it to verify every router agrees on
// placement.
func (f *Frontend) handleAssignment(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, f.asg)
}

// handleReadyz reports routing health: ready only when every breaker is
// closed and every assignment row has at least one replica that could
// serve. Degraded answers 503 with the unhealthy backends and uncovered
// rows named — a load balancer drains this frontend while its siblings
// (same table, own breakers) keep serving.
func (f *Frontend) handleReadyz(w http.ResponseWriter, r *http.Request) {
	var unhealthy []string
	for i, st := range f.states {
		if s := st.breaker.State(); s != BreakerClosed {
			unhealthy = append(unhealthy, fmt.Sprintf("%s (breaker %s)", f.backends[i], s))
		}
	}
	var uncovered []int
	for row := 0; row < f.asg.Rows(); row++ {
		live := false
		for _, b := range f.asg.Replicas(row) {
			if f.states[b].breaker.State() != BreakerOpen {
				live = true
				break
			}
		}
		if !live {
			uncovered = append(uncovered, row)
		}
	}
	ready := len(unhealthy) == 0 && len(uncovered) == 0
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, ReadyzResponse{Ready: ready, Unhealthy: unhealthy, Uncovered: uncovered})
}

// handleVarz reports the frontend's own endpoint metrics, the fleet
// fault-tolerance counters, and a per-backend view combining the live
// poll (occupancy; short timeout, /varz is an operator endpoint) with
// the routing-side health the frontend maintains itself — breaker
// state, trips, probes, transport failures.
func (f *Frontend) handleVarz(w http.ResponseWriter, r *http.Request) {
	n := len(f.backends)
	views := make([]BackendVarz, n)
	fanout.ForEach(n, func(i int) {
		views[i] = BackendVarz{URL: f.backends[i]}
		ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
		defer cancel()
		var v Varz
		if err := f.callJSON(ctx, f.backends[i]+"/varz", nil, &v); err != nil {
			views[i].Error = err.Error()
			return
		}
		views[i].OK = true
		views[i].Docs = v.Docs
		if v.Ladder != nil {
			views[i].Symbols = v.Ladder.Live
		}
	})
	for i, st := range f.states {
		views[i].Breaker = st.breaker.State()
		views[i].Trips = st.breaker.Trips()
		views[i].Probes = st.breaker.Probes()
		views[i].Fails = st.fails.Load()
	}
	lat := QuantilesOf(&f.beLat)
	writeJSON(w, http.StatusOK, Varz{
		Role:             "frontend",
		UptimeSeconds:    f.met.Uptime().Seconds(),
		Endpoints:        f.met.Snapshot(),
		Counters:         f.met.Counters(),
		Backends:         views,
		Replication:      f.asg.Replication,
		BackendLatencyMs: &lat,
	})
}
