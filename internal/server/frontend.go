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
	"sync/atomic"
	"time"

	"dyncoll/internal/fanout"
	"dyncoll/internal/query"
	"dyncoll/internal/shardmap"
)

// Frontend is the stateless query router over a replicated fleet. The
// versioned assignment table maps every document ID to an assignment
// row — one of the paper's sub-collections — and every row to its
// ordered replica set of R backends. Writes go to ALL replicas of the
// owning row (quorum = all), reads to any single live replica per row,
// and un-routable queries fan out one request per ROW (not per
// backend), merging the per-row NDJSON streams through the same fanout
// contract the in-process sharding layer uses. The table is a pure
// function of (key, table), so any number of frontend replicas handed
// the same table agree with no coordination.
//
// Every backend call runs through the call engine (call.go): per-op
// deadline, circuit-breaker gating, idempotent retries with backoff,
// and hedged reads for ranked/count calls.
type Frontend struct {
	backends  []string // normalized base URLs, index = backend number
	asg       shardmap.Assignment
	ranged    bool // false for the trivial 1:1 table: omit ?range=, bytes land in the default collections
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
	// Assignment, when non-nil, is the explicit placement table; its
	// Backends must equal len(Backends). Nil derives the default table
	// NewAssignment(len(Backends), Replication).
	Assignment *shardmap.Assignment
	// Replication is the replica count per assignment row when
	// Assignment is nil; ≤ 1 means unreplicated.
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

// NewFrontend builds an unreplicated frontend with default tuning —
// the placement-compatible convenience constructor.
func NewFrontend(backends []string) (*Frontend, error) {
	return NewFrontendConfig(FrontendConfig{Backends: backends})
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
	var asg shardmap.Assignment
	if cfg.Assignment != nil {
		asg = *cfg.Assignment
		if err := asg.Validate(); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		if asg.Backends != len(norm) {
			return nil, fmt.Errorf("server: assignment covers %d backends, fleet has %d", asg.Backends, len(norm))
		}
	} else {
		r := cfg.Replication
		if r < 1 {
			r = 1
		}
		asg = shardmap.NewAssignment(len(norm), r)
	}
	f := &Frontend{
		backends:  norm,
		asg:       asg,
		ranged:    !trivialAssignment(asg),
		cfg:       cfg,
		opTimeout: cfg.OpTimeout,
		retry:     cfg.Retry.withDefaults(),
		// Connection pooling matters here: every query opens one request
		// per row, so idle conns per host must cover the fan-out.
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}},
		met:    NewMetrics("insert", "delete", "find", "search", "count", "extract"),
		states: make([]*backendState, len(norm)),
	}
	if f.opTimeout <= 0 {
		f.opTimeout = 5 * time.Second
	}
	for i := range f.states {
		f.states[i] = &backendState{breaker: NewBreaker(cfg.Breaker)}
	}
	return f, nil
}

// trivialAssignment reports whether asg is the identity table (one row
// per backend, row i served only by backend i). Requests under it omit
// the ?range= parameter, preserving the unreplicated wire protocol —
// and with it the on-disk layout of existing unreplicated deployments.
func trivialAssignment(asg shardmap.Assignment) bool {
	if asg.Replication != 1 || asg.Rows() != asg.Backends {
		return false
	}
	for i := 0; i < asg.Rows(); i++ {
		rs := asg.Replicas(i)
		if len(rs) != 1 || rs[0] != i {
			return false
		}
	}
	return true
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
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/insert", f.met.Wrap("insert", f.handleInsert))
	mux.HandleFunc("POST /v1/delete", f.met.Wrap("delete", f.handleDelete))
	mux.HandleFunc("GET /v1/find", f.met.Wrap("find", f.handleFind))
	mux.HandleFunc("GET /v1/search", f.met.Wrap("search", f.handleSearch))
	mux.HandleFunc("POST /v1/search", f.met.Wrap("search", f.handleSearch))
	mux.HandleFunc("GET /v1/count", f.met.Wrap("count", f.handleCount))
	mux.HandleFunc("GET /v1/extract", f.met.Wrap("extract", f.handleExtract))
	mux.HandleFunc("GET /v1/assignment", f.handleAssignment)
	mux.HandleFunc("GET /varz", f.handleVarz)
	mux.HandleFunc("GET /healthz", handleHealth)
	mux.HandleFunc("GET /readyz", f.handleReadyz)
	return mux
}

// rangeSuffix renders the ?range= fragment for a row-scoped backend
// request; sep is "?" or "&" depending on whether a query string
// already exists. Trivial tables omit it (see trivialAssignment).
func (f *Frontend) rangeSuffix(sep string, row int) string {
	if !f.ranged {
		return ""
	}
	return sep + "range=" + strconv.Itoa(row)
}

// postJSON sends one JSON request and decodes the reply; a non-2xx
// reply is returned as (status, ErrorResponse).
func (f *Frontend) postJSON(ctx context.Context, url string, body, out any) (int, *ErrorResponse, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e ErrorResponse
		if json.NewDecoder(resp.Body).Decode(&e) != nil || e.Error == "" {
			e = ErrorResponse{Error: CodeInternal, Message: fmt.Sprintf("backend returned status %d", resp.StatusCode)}
		}
		return resp.StatusCode, &e, nil
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return 0, nil, err
		}
	}
	return http.StatusOK, nil, nil
}

// postJSONErr is postJSON with the application error folded into the
// error return as a *wireError — the shape the call engine classifies.
func (f *Frontend) postJSONErr(ctx context.Context, url string, body, out any) error {
	status, werr, err := f.postJSON(ctx, url, body, out)
	if err != nil {
		return err
	}
	if werr != nil {
		return &wireError{status: status, resp: werr}
	}
	return nil
}

// getJSONErr fetches one JSON reply with the same error folding.
func (f *Frontend) getJSONErr(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
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
// backend status and code.
func writeFault(w http.ResponseWriter, bf *backendFault) {
	if bf.err != nil {
		writeError(w, http.StatusBadGateway, CodeUnreachable, bf.message())
		return
	}
	writeError(w, bf.status, bf.werr.Error, bf.message())
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

// handleInsert splits the batch by owning assignment row, validates the
// whole batch up front (in-batch duplicate IDs, reserved bytes — the
// common failure modes reject before any backend is touched), and
// writes each row's part to ALL of its replicas. A row is acked only
// when every replica applied it; on any failure the reply says exactly
// how many documents were fully acked and how many sit in failed rows —
// partial application is reported, never silent.
func (f *Frontend) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req InsertRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Docs) == 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "empty docs batch")
		return
	}
	rows := f.asg.Rows()
	parts := make([][]DocJSON, rows)
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
		t := f.asg.RowOf(d.ID)
		parts[t] = append(parts[t], d)
	}
	var involved []int
	for i, part := range parts {
		if part != nil {
			involved = append(involved, i)
		}
	}
	type rowResult struct {
		fault  *backendFault
		someOK bool // at least one replica applied: the row is partially written
		docs   int
	}
	results := make([]rowResult, len(involved))
	fanout.ForEach(len(involved), func(k int) {
		row := involved[k]
		outs := f.writeRow(r.Context(), row, false, func(ctx context.Context, b int) (int, error) {
			var out InsertResponse
			url := f.backends[b] + "/v1/insert" + f.rangeSuffix("?", row)
			if err := f.postJSONErr(ctx, url, InsertRequest{Docs: parts[row]}, &out); err != nil {
				return 0, err
			}
			return out.Inserted, nil
		})
		rr := rowResult{docs: len(parts[row])}
		for _, o := range outs {
			if o.fault != nil {
				rr.fault = preferFault(rr.fault, o.fault)
			} else {
				rr.someOK = true
			}
		}
		results[k] = rr
	})
	acked, failed := 0, 0
	partial := false
	var fault *backendFault
	for _, rr := range results {
		if rr.fault == nil {
			acked += rr.docs
			continue
		}
		failed += rr.docs
		if rr.someOK {
			partial = true
		}
		fault = preferFault(fault, rr.fault)
	}
	if fault != nil {
		msg := fault.message()
		if acked > 0 || partial {
			msg = fmt.Sprintf("%s; %d document(s) acked on all replicas, %d in failed row(s)", msg, acked, failed)
			if partial {
				msg += " (some applied to only part of their replica set)"
			}
		}
		if fault.err != nil {
			writeError(w, http.StatusBadGateway, CodeUnreachable, msg)
		} else {
			writeError(w, fault.status, fault.werr.Error, msg)
		}
		return
	}
	writeJSON(w, http.StatusOK, InsertResponse{Inserted: acked})
}

// handleDelete splits the IDs by owning row and deletes from every
// replica. Deletion is idempotent (absent IDs are skipped), so the
// engine may retry any transport failure; the reported count per row is
// the maximum over its replicas (a replica that missed the original
// insert deletes fewer — the max is what left the logical collection).
func (f *Frontend) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req DeleteRequest
	if !decodeBody(w, r, &req) {
		return
	}
	rows := f.asg.Rows()
	parts := make([][]uint64, rows)
	for _, id := range req.IDs {
		t := f.asg.RowOf(id)
		parts[t] = append(parts[t], id)
	}
	var involved []int
	for i, part := range parts {
		if part != nil {
			involved = append(involved, i)
		}
	}
	faults := make([]*backendFault, len(involved))
	var deleted atomic.Int64
	fanout.ForEach(len(involved), func(k int) {
		row := involved[k]
		outs := f.writeRow(r.Context(), row, true, func(ctx context.Context, b int) (int, error) {
			var out DeleteResponse
			url := f.backends[b] + "/v1/delete" + f.rangeSuffix("?", row)
			if err := f.postJSONErr(ctx, url, DeleteRequest{IDs: parts[row]}, &out); err != nil {
				return 0, err
			}
			return out.Deleted, nil
		})
		rowMax := 0
		for _, o := range outs {
			faults[k] = preferFault(faults[k], o.fault)
			if o.fault == nil && o.count > rowMax {
				rowMax = o.count
			}
		}
		if faults[k] == nil {
			deleted.Add(int64(rowMax))
		}
	})
	for _, bf := range faults {
		if bf != nil {
			writeFault(w, bf)
			return
		}
	}
	writeJSON(w, http.StatusOK, DeleteResponse{Deleted: int(deleted.Load())})
}

// handleFind fans the query out one request per assignment row and
// merges the NDJSON streams through relay; each row's limit mirrors the
// merged limit, since no single row can satisfy more than the whole
// query needs.
func (f *Frontend) handleFind(w http.ResponseWriter, r *http.Request) {
	pattern, ok := queryPattern(w, r)
	if !ok {
		return
	}
	limit, ok := queryLimit(w, r)
	if !ok {
		return
	}
	tail := "/v1/find?" + findQuery(pattern, limit)
	n := f.relay(w, r, limit, func(ctx context.Context, row int, base string) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, base+tail+f.rangeSuffix("&", row), nil)
	}, func(msg string) any { return FindResult{Err: msg, Partial: true} })
	f.met.AddStreamed("find", n)
}

// handleSearch runs a search plan over the fleet. The spec travels to
// every row's replica verbatim (wire-level plan serialization: each
// backend compiles and executes the same plan the frontend's client
// sent), and only the merge differs by variant — the union-over-
// sub-collections contract with the fleet as the outermost union.
// Unranked per-row streams merge through relay exactly like find's,
// bounded by the plan's k.
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
	if p.Ranked() {
		f.searchRanked(w, r, p.K(), raw)
		return
	}
	n := f.relay(w, r, p.K(), func(ctx context.Context, row int, base string) (*http.Request, error) {
		return f.searchRequest(ctx, row, base, raw)
	}, func(msg string) any { return SearchResult{Err: msg, Partial: true} })
	f.met.AddStreamed("search", n)
}

// relay fans one request per assignment row out — each row's stream
// served by one live replica, retried on a sibling while nothing was
// emitted — and relays the merged NDJSON lines to the client as they
// arrive, flushing every fanout.Chunk lines. Early break propagates in
// both directions: when the client disconnects or limit lines (0 =
// unlimited) were relayed, every row request is cancelled, which each
// backend observes as a client disconnect and stops its enumeration —
// the in-process early-break contract, lifted to processes.
//
// A row that fails after its stream started cannot change the
// already-streaming 200 status; the failure is reported in-band as a
// final NDJSON line, built by trailer, with "error" set and
// "partial":true. With nothing streamed yet the reply is a real 502 —
// unless the client opted into degraded reads with ?partial=true, in
// which case whatever the live rows produced is served, with the same
// explicit trailer. relay returns the number of lines relayed.
func (f *Frontend) relay(w http.ResponseWriter, r *http.Request, limit int,
	newReq func(ctx context.Context, row int, base string) (*http.Request, error), trailer func(msg string) any) int {
	partialOK := boolParam(r.URL.Query().Get("partial"))
	w.Header().Set("Content-Type", "application/x-ndjson")
	ctx := r.Context()
	n := 0
	write := ndjsonLines(w, r, &n, func(line []byte) error {
		_, err := w.Write(append(line, '\n'))
		return err
	})
	var failures atomic.Int32
	var firstFault atomic.Pointer[backendFault]
	fanout.FanOut(f.asg.Rows(), func(row int, emit func([]byte) bool) {
		cctx, cancel := context.WithCancel(ctx)
		defer cancel() // early break → cancel → backend stops enumerating
		bf := f.streamRow(cctx, row, func(rctx context.Context, base string) (*http.Request, error) {
			return newReq(rctx, row, base)
		}, emit)
		if bf != nil {
			failures.Add(1)
			firstFault.CompareAndSwap(nil, bf)
		}
	}, func(line []byte) bool { return write(line) && (limit == 0 || n < limit) })
	if bf := firstFault.Load(); bf != nil && ctx.Err() == nil {
		if n == 0 && !partialOK {
			writeError(w, http.StatusBadGateway, CodeUnreachable, bf.message())
			return n
		}
		json.NewEncoder(w).Encode(trailer(fmt.Sprintf("%s (%d row(s) failed)", bf.message(), failures.Load())))
	}
	return n
}

// searchRequest builds the POST /v1/search of the wire spec raw to row
// on the backend at base.
func (f *Frontend) searchRequest(ctx context.Context, row int, base string, raw []byte) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/search"+f.rangeSuffix("?", row), bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

// collectSearch gathers one row's exact local top-k list from backend b
// (bounded: at most k lines travel), read by the same stream reader the
// relay uses.
func (f *Frontend) collectSearch(ctx context.Context, b, row int, raw []byte) ([]query.Match, error) {
	var out []query.Match
	var bad error
	err := f.streamOnce(ctx, b, func(ctx context.Context, base string) (*http.Request, error) {
		return f.searchRequest(ctx, row, base, raw)
	}, func(line []byte) bool {
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

// searchRanked gathers each row's exact local top-k list (at most k
// documents each — the fleet transfers O(rows·k) results, never the
// full match set) through the hedged read path and merges them into the
// exact global top-k: scores are document-local and rows are disjoint,
// so the merge commutes with the union. Any row fault fails the query
// with 502 — a top-k list missing one row's documents is silently
// wrong, which is worse than unavailable — unless the client opted into
// ?partial=true, which serves the merge of the live rows with an
// explicit partial trailer.
func (f *Frontend) searchRanked(w http.ResponseWriter, r *http.Request, k int, raw []byte) {
	partialOK := boolParam(r.URL.Query().Get("partial"))
	rows := f.asg.Rows()
	lists := make([][]query.Match, rows)
	faults := make([]*backendFault, rows)
	fanout.ForEach(rows, func(row int) {
		v, bf := rowGet(f, r.Context(), row, true, func(ctx context.Context, b int) ([]query.Match, error) {
			return f.collectSearch(ctx, b, row, raw)
		})
		if bf != nil {
			faults[row] = bf
			return
		}
		lists[row] = v
	})
	nFailed := 0
	var fault *backendFault
	for _, bf := range faults {
		if bf != nil {
			nFailed++
			fault = preferFault(fault, bf)
		}
	}
	if fault != nil && !partialOK {
		writeFault(w, fault)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	streamed := 0
	write := ndjsonLines(w, r, &streamed, enc.Encode)
	query.MergeRanked(lists, k, func(m query.Match) bool {
		return write(SearchResult{Doc: m.Doc, Off: m.Off, Len: m.Len, Score: m.Score})
	})
	if fault != nil {
		enc.Encode(SearchResult{
			Err:     fmt.Sprintf("%s (%d row(s) failed)", fault.message(), nFailed),
			Partial: true,
		})
	}
	f.met.AddStreamed("search", streamed)
}

// findQuery renders the find query string for a backend request.
func findQuery(pattern []byte, limit int) string {
	v := make([]string, 0, 2)
	v = append(v, "q="+urlEscape(pattern))
	if limit > 0 {
		v = append(v, fmt.Sprintf("limit=%d", limit))
	}
	return strings.Join(v, "&")
}

// urlEscape query-escapes a byte pattern.
func urlEscape(b []byte) string {
	return url.QueryEscape(string(b))
}

// handleCount asks each row's live replica for its count (hedged) and
// sums. By default a single unreachable row fails the whole count — a
// partial count is indistinguishable from a correct one, so it must not
// be served silently. With ?partial=true the sum over reachable rows is
// served instead, explicitly labeled with what failed.
func (f *Frontend) handleCount(w http.ResponseWriter, r *http.Request) {
	pattern, ok := queryPattern(w, r)
	if !ok {
		return
	}
	partialOK := boolParam(r.URL.Query().Get("partial"))
	rows := f.asg.Rows()
	counts := make([]int, rows)
	faults := make([]*backendFault, rows)
	fanout.ForEach(rows, func(row int) {
		v, bf := rowGet(f, r.Context(), row, true, func(ctx context.Context, b int) (CountResponse, error) {
			var out CountResponse
			url := f.backends[b] + "/v1/count?q=" + urlEscape(pattern) + f.rangeSuffix("&", row)
			err := f.getJSONErr(ctx, url, &out)
			return out, err
		})
		if bf != nil {
			faults[row] = bf
			return
		}
		counts[row] = v.Count
	})
	total := 0
	var failed []string
	var fault *backendFault
	for row, bf := range faults {
		if bf != nil {
			failed = append(failed, fmt.Sprintf("row %d: %s", row, bf.message()))
			fault = preferFault(fault, bf)
			continue
		}
		total += counts[row]
	}
	if fault != nil && !partialOK {
		writeFault(w, fault)
		return
	}
	writeJSON(w, http.StatusOK, CountResponse{Count: total, Partial: fault != nil, Failed: failed})
}

// handleExtract routes to the owning row, reads the reply from any live
// replica through the retry path, and relays it verbatim — status,
// error envelope and all.
func (f *Frontend) handleExtract(w http.ResponseWriter, r *http.Request) {
	idStr := r.URL.Query().Get("id")
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "id must be a uint64")
		return
	}
	row := f.asg.RowOf(id)
	type exReply struct {
		status int
		ctype  string
		body   []byte
	}
	v, bf := rowGet(f, r.Context(), row, false, func(ctx context.Context, b int) (exReply, error) {
		url := f.backends[b] + "/v1/extract?" + r.URL.RawQuery + f.rangeSuffix("&", row)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return exReply{}, err
		}
		resp, err := f.client.Do(req)
		if err != nil {
			return exReply{}, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
		if err != nil {
			return exReply{}, err
		}
		return exReply{status: resp.StatusCode, ctype: resp.Header.Get("Content-Type"), body: body}, nil
	})
	if bf != nil {
		if r.Context().Err() != nil {
			return
		}
		writeFault(w, bf)
		return
	}
	w.Header().Set("Content-Type", v.ctype)
	w.WriteHeader(v.status)
	w.Write(v.body)
}

// handleAssignment serves the placement table verbatim: operators and
// sibling frontends can fetch it to verify every router agrees on
// placement (same version ⇒ same table ⇒ same routing).
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
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.backends[i]+"/varz", nil)
		if err != nil {
			views[i].Error = err.Error()
			return
		}
		resp, err := f.client.Do(req)
		if err != nil {
			views[i].Error = err.Error()
			return
		}
		defer resp.Body.Close()
		var v Varz
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
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
		Role:              "frontend",
		UptimeSeconds:     f.met.Uptime().Seconds(),
		Endpoints:         f.met.Snapshot(),
		Counters:          f.met.Counters(),
		Backends:          views,
		AssignmentVersion: f.asg.Version,
		Replication:       f.asg.Replication,
		BackendLatencyMs:  &lat,
	})
}
