// Package server is the networked serving layer over the dynamic
// document collection: a backend exposes one (sharded) Collection over
// HTTP/JSON with streaming NDJSON query results, and a frontend routes
// keyed operations to the backend owning each document while fanning
// un-routable queries out across the whole fleet — the same union-over-
// sub-collections contract the in-process sharding layer implements,
// lifted to processes (a backend is one more shard level; see
// DESIGN.md). Only the standard library is used.
//
// Endpoints (both roles serve the same API):
//
//	POST /v1/insert   {"docs":[{"id":1,"text":"…"} | {"id":2,"data":"<base64>"}]}
//	POST /v1/delete   {"ids":[1,2,3]}
//	GET  /v1/find?q=pat[&limit=n]   NDJSON stream of {"doc":id,"off":o}
//	POST /v1/search   {"q":"pat","regex":true,"ranked":true,"k":10}
//	                  NDJSON stream of {"doc":id,"off":o,"len":l,"score":s}
//	                  (also GET /v1/search?q=pat&regex=1&ranked=1&k=10)
//	GET  /v1/count?q=pat            {"count":n}
//	GET  /v1/extract?id=1&off=0&len=8
//	GET  /varz                      JSON metrics (see Varz)
//	GET  /healthz                   "ok"
//
// Errors are JSON objects {"error":"<code>","message":"…"} with the
// code drawn from the fixed set bad_request, duplicate_id,
// reserved_byte, not_found, backend_unreachable, internal.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"dyncoll"
	"dyncoll/internal/fanout"
	"dyncoll/internal/query"
)

// maxBodyBytes bounds request bodies (batch inserts included) so one
// request cannot balloon resident memory; 64 MiB comfortably holds the
// batch sizes the engine is tuned for.
const maxBodyBytes = 64 << 20

// DocJSON is a document on the wire. Exactly one of Text (convenience
// for UTF-8 payloads) or Data (base64 in JSON, arbitrary bytes) should
// be set; Text wins when both are present.
type DocJSON struct {
	ID   uint64 `json:"id"`
	Text string `json:"text,omitempty"`
	Data []byte `json:"data,omitempty"`
}

// Payload returns the document body the wire form denotes.
func (d DocJSON) Payload() []byte {
	if d.Text != "" {
		return []byte(d.Text)
	}
	return d.Data
}

// InsertRequest is the POST /v1/insert body. The batch is atomic: on
// any error no document is inserted.
type InsertRequest struct {
	Docs []DocJSON `json:"docs"`
}

// InsertResponse reports a successful batch insert.
type InsertResponse struct {
	Inserted int `json:"inserted"`
}

// DeleteRequest is the POST /v1/delete body. Absent IDs are skipped,
// matching Collection.DeleteBatch.
type DeleteRequest struct {
	IDs []uint64 `json:"ids"`
}

// DeleteResponse reports how many documents were actually removed.
type DeleteResponse struct {
	Deleted int `json:"deleted"`
}

// CountResponse is the GET /v1/count reply. Partial is set only by a
// frontend answering in degraded mode (?partial=true with some
// assignment rows unreachable): Count then covers the reachable rows
// and Failed names what was left out — a degraded answer is always
// explicitly labeled, never silent.
type CountResponse struct {
	Count   int      `json:"count"`
	Partial bool     `json:"partial,omitempty"`
	Failed  []string `json:"failed,omitempty"`
}

// ExtractResponse is the GET /v1/extract reply; Data carries the raw
// bytes (base64 in JSON).
type ExtractResponse struct {
	ID   uint64 `json:"id"`
	Off  int    `json:"off"`
	Data []byte `json:"data"`
}

// FindResult is one NDJSON line of a GET /v1/find stream. A line with
// Err set reports a mid-stream failure (frontend fan-out only): by the
// time a backend dies the stream status is already 200, so the error
// travels in-band as the final line.
type FindResult struct {
	Doc uint64 `json:"doc"`
	Off int    `json:"off"`
	Err string `json:"error,omitempty"`
	// Partial marks an error trailer that ends an incomplete stream:
	// every line before it is valid, but at least one assignment row
	// contributed nothing.
	Partial bool `json:"partial,omitempty"`
}

// SearchResult is one NDJSON line of a /v1/search stream: a
// dyncoll.Match on the wire, plus the same in-band error trailer
// convention as FindResult. Streaming plans emit one line per
// occurrence; ranked plans one line per document, best score first.
type SearchResult struct {
	Doc   uint64  `json:"doc"`
	Off   int     `json:"off"`
	Len   int     `json:"len,omitempty"`
	Score float64 `json:"score,omitempty"`
	Err   string  `json:"error,omitempty"`
	// Partial marks an error trailer ending an incomplete stream (see
	// FindResult.Partial).
	Partial bool `json:"partial,omitempty"`
}

// ErrorResponse is the JSON error envelope.
type ErrorResponse struct {
	Error   string `json:"error"`
	Message string `json:"message"`
}

// ReadyzResponse is the GET /readyz reply. A backend is ready when it
// can serve; a frontend is ready when every assignment row has at least
// one live replica and no breaker is open — otherwise it answers 503
// with the unhealthy backends and uncovered rows named, so an operator
// (or a rolling deploy) sees exactly what degraded.
type ReadyzResponse struct {
	Ready     bool     `json:"ready"`
	Unhealthy []string `json:"unhealthy,omitempty"`
	Uncovered []int    `json:"uncovered_rows,omitempty"`
}

// Error codes: stable strings clients can switch on.
const (
	CodeBadRequest   = "bad_request"
	CodeDuplicateID  = "duplicate_id"
	CodeReservedByte = "reserved_byte"
	CodeNotFound     = "not_found"
	CodeUnreachable  = "backend_unreachable"
	CodeInternal     = "internal"
)

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError writes the JSON error envelope.
func writeError(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, ErrorResponse{Error: code, Message: message})
}

// writeCollErr maps a collection error onto the wire: the sentinel
// picks the stable code and status, the wrapped detail rides in the
// message.
func writeCollErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, dyncoll.ErrDuplicateID):
		writeError(w, http.StatusConflict, CodeDuplicateID, err.Error())
	case errors.Is(err, dyncoll.ErrReservedByte):
		writeError(w, http.StatusBadRequest, CodeReservedByte, err.Error())
	case errors.Is(err, dyncoll.ErrNotFound):
		writeError(w, http.StatusNotFound, CodeNotFound, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
	}
}

// decodeBody decodes a JSON request body into v, enforcing the size cap
// and rejecting trailing garbage.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "malformed JSON body: "+err.Error())
		return false
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "trailing data after JSON body")
		return false
	}
	return true
}

// queryPattern extracts the required q parameter.
func queryPattern(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	q := r.URL.Query().Get("q")
	if q == "" {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "missing query parameter q")
		return nil, false
	}
	return []byte(q), true
}

// queryLimit extracts the optional limit parameter (0 = unlimited).
func queryLimit(w http.ResponseWriter, r *http.Request) (int, bool) {
	s := r.URL.Query().Get("limit")
	if s == "" {
		return 0, true
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "limit must be a non-negative integer")
		return 0, false
	}
	return n, true
}

// Coll is the collection surface the backend serves: everything the
// handlers touch, satisfied by both the plain sharded Collection (via
// the PlainColl adapter) and the WAL-backed DurableCollection — the
// durable variant's DeleteBatch can fail, so the interface carries the
// error and the adapter supplies a nil one.
type Coll interface {
	InsertBatch(docs []dyncoll.Document) error
	DeleteBatch(ids []uint64) (int, error)
	FindLimit(pattern []byte, k int) []dyncoll.Occurrence
	Search(plan dyncoll.SearchPlan, fn func(dyncoll.Match) bool) error
	Count(pattern []byte) int
	Extract(id uint64, off, length int) ([]byte, bool)
	Has(id uint64) bool
	DocCount() int
	Len() int
	SizeBits() int64
	Stats() dyncoll.IndexStats
	ShardSizes() []int
	WaitIdle()
}

// PlainColl adapts *dyncoll.Collection to Coll (its DeleteBatch cannot
// fail, so the adapter adds the nil error).
type PlainColl struct{ *dyncoll.Collection }

// DeleteBatch removes the listed documents; the error is always nil.
func (p PlainColl) DeleteBatch(ids []uint64) (int, error) {
	return p.Collection.DeleteBatch(ids), nil
}

// Backend serves collections over HTTP. Every collection must be
// sharded (WithShards ≥ 1, the concurrency-safe floor): the HTTP server
// runs handlers concurrently and an unsharded collection is not safe
// for concurrent use.
//
// A backend hosts one default collection plus, when range hosting is
// enabled, one lazily-created collection per assignment row it hosts
// (the ?range=N parameter names the row; a frontend names it on every
// request). A row is one of the paper's sub-collections; replication
// places the same row on R backends, and keeping rows in separate
// collections is what lets a replica answer for exactly the rows a
// frontend asks about — a backend-level count cannot tell which row a
// document belongs to, so the row must be the addressable unit. A read
// may name several rows (?range=0&range=1) and answers for their union,
// so a frontend asks one backend once for every row it hosts; writes
// and extract name at most one. Requests without ?range= hit the
// default collection (writes) or the union of everything hosted
// (reads): the default collection serves direct clients only.
type Backend struct {
	coll    Coll
	factory func(rng int) (Coll, error)
	mu      sync.RWMutex
	ranges  map[int]Coll
	met     *Metrics
}

// NewBackend wraps a (sharded) collection in the serving layer.
func NewBackend(c Coll) *Backend {
	return &Backend{
		coll:   c,
		ranges: make(map[int]Coll),
		met:    NewMetrics(apiOps...),
	}
}

// EnableRanges turns on range hosting: a write addressed to an unseen
// ?range=N creates its collection via factory. Returns b for chaining.
func (b *Backend) EnableRanges(factory func(rng int) (Coll, error)) *Backend {
	b.factory = factory
	return b
}

// SetRange installs a pre-built collection for one assignment row
// (restore-at-boot path).
func (b *Backend) SetRange(rng int, c Coll) {
	b.mu.Lock()
	b.ranges[rng] = c
	b.mu.Unlock()
}

// Ranges snapshots the hosted row collections (drain path saves them).
func (b *Backend) Ranges() map[int]Coll {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make(map[int]Coll, len(b.ranges))
	for k, v := range b.ranges {
		out[k] = v
	}
	return out
}

// Collection returns the default collection (the drain path saves it).
func (b *Backend) Collection() Coll { return b.coll }

// DocCountAll sums live documents across every hosted collection.
func (b *Backend) DocCountAll() int {
	n := 0
	for _, c := range b.readColls(nil) {
		n += c.DocCount()
	}
	return n
}

// Metrics returns the backend's request metrics.
func (b *Backend) Metrics() *Metrics { return b.met }

// Handler returns the backend's full route table.
func (b *Backend) Handler() http.Handler { return newMux(b.met, b) }

// apiOps are the operations of the API both roles serve, each
// instrumented under its name.
var apiOps = []string{"insert", "delete", "find", "search", "count", "extract"}

// api is the request surface both roles implement.
type api interface {
	handleInsert(http.ResponseWriter, *http.Request)
	handleDelete(http.ResponseWriter, *http.Request)
	handleFind(http.ResponseWriter, *http.Request)
	handleSearch(http.ResponseWriter, *http.Request)
	handleCount(http.ResponseWriter, *http.Request)
	handleExtract(http.ResponseWriter, *http.Request)
	handleVarz(http.ResponseWriter, *http.Request)
	handleReadyz(http.ResponseWriter, *http.Request)
}

// newMux registers a role's API from the one route table, wrapping
// every operation in met's instrumentation.
func newMux(met *Metrics, h api) *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range []struct {
		pattern, op string
		fn          http.HandlerFunc
	}{
		{"POST /v1/insert", "insert", h.handleInsert},
		{"POST /v1/delete", "delete", h.handleDelete},
		{"GET /v1/find", "find", h.handleFind},
		{"GET /v1/search", "search", h.handleSearch},
		{"POST /v1/search", "search", h.handleSearch},
		{"GET /v1/count", "count", h.handleCount},
		{"GET /v1/extract", "extract", h.handleExtract},
		{"GET /varz", "", h.handleVarz},
		{"GET /healthz", "", handleHealth},
		{"GET /readyz", "", h.handleReadyz},
	} {
		if rt.op != "" {
			rt.fn = met.Wrap(rt.op, rt.fn)
		}
		mux.HandleFunc(rt.pattern, rt.fn)
	}
	return mux
}

func handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	io.WriteString(w, "ok\n")
}

// handleReadyz: a backend that can serve requests is ready; readiness
// subtleties live on the frontend, which knows the assignment.
func (b *Backend) handleReadyz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ReadyzResponse{Ready: true})
}

// queryRanges parses the range parameters, each naming one assignment
// row. A read may repeat it and covers the union of the named rows;
// insert, delete and extract (one=true) address at most one row. No
// range returns nil.
func queryRanges(w http.ResponseWriter, r *http.Request, one bool) ([]int, bool) {
	vals := r.URL.Query()["range"]
	if len(vals) == 0 || len(vals) == 1 && vals[0] == "" {
		return nil, true
	}
	if one && len(vals) > 1 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "range may be given at most once on insert, delete and extract")
		return nil, false
	}
	rngs := make([]int, 0, len(vals))
	for _, s := range vals {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "range must be a non-negative integer")
			return nil, false
		}
		if !slices.Contains(rngs, n) {
			rngs = append(rngs, n)
		}
	}
	return rngs, true
}

// writeColl resolves the collection a write lands in: the named row
// (created on first use) or, with no row named, the default collection.
func (b *Backend) writeColl(rngs []int) (Coll, error) {
	if rngs == nil {
		return b.coll, nil
	}
	rng := rngs[0]
	b.mu.RLock()
	c := b.ranges[rng]
	b.mu.RUnlock()
	if c != nil {
		return c, nil
	}
	if b.factory == nil {
		return nil, fmt.Errorf("range routing not enabled on this backend (range %d)", rng)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if c := b.ranges[rng]; c != nil {
		return c, nil
	}
	c, err := b.factory(rng)
	if err != nil {
		return nil, fmt.Errorf("create range %d: %w", rng, err)
	}
	b.ranges[rng] = c
	return c, nil
}

// readColls resolves the collections a read covers: exactly the named
// rows (a row this backend never hosted contributes nothing — an honest
// zero, not an error), or with none named the default collection plus
// every hosted row.
func (b *Backend) readColls(rngs []int) []Coll {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if rngs != nil {
		out := make([]Coll, 0, len(rngs))
		for _, rng := range rngs {
			if c := b.ranges[rng]; c != nil {
				out = append(out, c)
			}
		}
		return out
	}
	out := make([]Coll, 0, 1+len(b.ranges))
	out = append(out, b.coll)
	for _, c := range b.ranges {
		out = append(out, c)
	}
	return out
}

func (b *Backend) handleInsert(w http.ResponseWriter, r *http.Request) {
	rngs, ok := queryRanges(w, r, true)
	if !ok {
		return
	}
	var req InsertRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Docs) == 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "empty docs batch")
		return
	}
	coll, err := b.writeColl(rngs)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	docs := make([]dyncoll.Document, len(req.Docs))
	for i, d := range req.Docs {
		docs[i] = dyncoll.Document{ID: d.ID, Data: d.Payload()}
	}
	// InsertBatch is atomic: validation runs under every involved
	// shard's write lock, so on error nothing was inserted.
	if err := coll.InsertBatch(docs); err != nil {
		writeCollErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, InsertResponse{Inserted: len(docs)})
}

func (b *Backend) handleDelete(w http.ResponseWriter, r *http.Request) {
	rngs, ok := queryRanges(w, r, true)
	if !ok {
		return
	}
	var req DeleteRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// A delete addressed to a row this backend never materialized is an
	// honest zero, not an error — DeleteBatch already skips absent IDs.
	n := 0
	for _, coll := range b.readColls(rngs) {
		d, err := coll.DeleteBatch(req.IDs)
		if err != nil {
			// Durable backends refuse the op when the WAL cannot make it
			// safe; the in-memory deletion may have happened, but it will
			// be re-lost on restart, so the client must not treat it as
			// done.
			writeCollErr(w, err)
			return
		}
		n += d
	}
	writeJSON(w, http.StatusOK, DeleteResponse{Deleted: n})
}

// handleFind streams the occurrences of q as NDJSON: find is the exact
// streaming plan {q, k: limit}, run by the routine that runs
// /v1/search, so only the line differs. Results are written (and
// periodically flushed) as the backward search produces them, and a
// client disconnect cancels the request context, which stops the
// enumeration at the next match — the early-break contract of FindIter
// carried over the wire.
func (b *Backend) handleFind(w http.ResponseWriter, r *http.Request) {
	rngs, ok := queryRanges(w, r, false)
	if !ok {
		return
	}
	pattern, ok := queryPattern(w, r)
	if !ok {
		return
	}
	limit, ok := queryLimit(w, r)
	if !ok {
		return
	}
	// An exact plan with a non-negative k always compiles.
	p, _ := query.Compile(query.Spec{PatternB: pattern, K: limit})
	b.runPlan(w, r, "find", p, b.readColls(rngs), func(m query.Match) any { return FindResult{Doc: m.Doc, Off: m.Off} })
}

// runPlan executes p over colls and streams the matches as NDJSON, one
// line(m) each, merged over the collections by the routine a sharded
// collection merges its shards with — the endpoints are the wire level
// of the plan/execute hierarchy. op names the endpoint whose streamed
// lines are counted.
func (b *Backend) runPlan(w http.ResponseWriter, r *http.Request, op string, p *query.Plan, colls []Coll, line func(query.Match) any) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	n := 0
	write := ndjsonLines(w, r, &n, json.NewEncoder(w).Encode)
	query.Union(p, len(colls), func(i int, emit func(query.Match) bool) {
		colls[i].Search(p.Spec(), emit)
	}, func(m query.Match) bool { return write(line(m)) })
	b.met.AddStreamed(op, n)
}

// ndjsonLines returns the emit every NDJSON stream of this package —
// backend or frontend — writes through: put writes one line, a flush
// follows every fanout.Chunk lines, and it returns false, which stops
// the enumeration feeding it, once the client has gone or a write
// fails. *n counts the lines written.
func ndjsonLines[T any](w http.ResponseWriter, r *http.Request, n *int, put func(T) error) func(T) bool {
	rc := http.NewResponseController(w)
	ctx := r.Context()
	return func(line T) bool {
		if ctx.Err() != nil || put(line) != nil {
			return false
		}
		*n++
		return *n%fanout.Chunk != 0 || rc.Flush() == nil
	}
}

// parseSearchSpec reads a search plan from the request: the JSON body
// on POST (the exact wire form of dyncoll.SearchPlan), query parameters
// q / regex / ranked / k on GET. The spec is compiled here, so malformed
// regexes and negative k reject with 400 rather than surfacing
// mid-stream.
func parseSearchSpec(w http.ResponseWriter, r *http.Request) (*query.Plan, bool) {
	var spec dyncoll.SearchPlan
	if r.Method == http.MethodPost {
		if !decodeBody(w, r, &spec) {
			return nil, false
		}
	} else {
		q := r.URL.Query()
		spec.Pattern = q.Get("q")
		spec.Regex = boolParam(q.Get("regex"))
		spec.Ranked = boolParam(q.Get("ranked"))
		if s := q.Get("k"); s != "" {
			k, err := strconv.Atoi(s)
			if err != nil || k < 0 {
				writeError(w, http.StatusBadRequest, CodeBadRequest, "k must be a non-negative integer")
				return nil, false
			}
			spec.K = k
		}
	}
	p, err := query.Compile(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return nil, false
	}
	return p, true
}

// boolParam interprets a query-string boolean.
func boolParam(s string) bool { return s == "1" || s == "true" }

// handleSearch executes a search plan over the hosted collections it
// addresses and streams the matches as NDJSON. Streaming plans deliver
// matches as they are found with the find endpoint's flush-and-cancel
// contract; ranked plans deliver at most k documents, best first. The
// same plan object a library caller would compile runs here.
func (b *Backend) handleSearch(w http.ResponseWriter, r *http.Request) {
	rngs, ok := queryRanges(w, r, false)
	if !ok {
		return
	}
	p, ok := parseSearchSpec(w, r)
	if !ok {
		return
	}
	b.runPlan(w, r, "search", p, b.readColls(rngs), func(m query.Match) any {
		return SearchResult{Doc: m.Doc, Off: m.Off, Len: m.Len, Score: m.Score}
	})
}

func (b *Backend) handleCount(w http.ResponseWriter, r *http.Request) {
	rngs, ok := queryRanges(w, r, false)
	if !ok {
		return
	}
	pattern, ok := queryPattern(w, r)
	if !ok {
		return
	}
	colls := b.readColls(rngs)
	counts := make([]int, len(colls))
	fanout.ForEach(len(colls), func(i int) { counts[i] = colls[i].Count(pattern) })
	total := 0
	for _, c := range counts {
		total += c
	}
	writeJSON(w, http.StatusOK, CountResponse{Count: total})
}

func (b *Backend) handleExtract(w http.ResponseWriter, r *http.Request) {
	rngs, ok := queryRanges(w, r, true)
	if !ok {
		return
	}
	q := r.URL.Query()
	id, err := strconv.ParseUint(q.Get("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "id must be a uint64")
		return
	}
	off, err1 := strconv.Atoi(q.Get("off"))
	length, err2 := strconv.Atoi(q.Get("len"))
	if err1 != nil || err2 != nil || off < 0 || length < 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "off and len must be non-negative integers")
		return
	}
	for _, coll := range b.readColls(rngs) {
		if data, ok := coll.Extract(id, off, length); ok {
			writeJSON(w, http.StatusOK, ExtractResponse{ID: id, Off: off, Data: data})
			return
		}
	}
	writeError(w, http.StatusNotFound, CodeNotFound,
		fmt.Sprintf("no document %d or range [%d,%d) out of bounds", id, off, off+length))
}

// handleVarz reports the backend's metrics. Docs, the ladder's live
// symbols and its size cover every hosted collection; the ladder's
// levels and shard sizes describe the default collection, and each
// hosted row has its own entry.
func (b *Backend) handleVarz(w http.ResponseWriter, r *http.Request) {
	v := Varz{
		Role:          "backend",
		UptimeSeconds: b.met.Uptime().Seconds(),
		Endpoints:     b.met.Snapshot(),
		Counters:      b.met.Counters(),
	}
	live, bits := 0, int64(0)
	for _, c := range b.readColls(nil) {
		v.Docs += c.DocCount()
		live += c.Len()
		bits += c.SizeBits()
	}
	lv := ladderVarz(b.coll, live, bits)
	v.Ladder = &lv
	if rngs := b.Ranges(); len(rngs) > 0 {
		v.RangeDocs = make(map[string]RowVarz, len(rngs))
		for rng, c := range rngs {
			v.RangeDocs[strconv.Itoa(rng)] = RowVarz{Docs: c.DocCount(), Ladder: ladderVarz(c, c.Len(), c.SizeBits())}
		}
	}
	writeJSON(w, http.StatusOK, v)
}

// ladderVarz reports c's ladder, with live symbols and size as given.
func ladderVarz(c Coll, live int, bits int64) LadderVarz {
	lv := NewLadderVarz(c.Stats(), "symbol", live, bits)
	lv.ShardSizes = c.ShardSizes()
	return lv
}
