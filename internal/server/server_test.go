package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"dyncoll"
	"dyncoll/internal/fanout"
)

// newTestBackend builds a small sharded collection behind a Backend and
// an httptest server. Sync rebuilds keep the ladder deterministic.
func newTestBackend(t *testing.T) (*Backend, *httptest.Server) {
	t.Helper()
	c, err := dyncoll.NewCollection(
		dyncoll.WithShards(2),
		dyncoll.WithSyncRebuilds(),
		dyncoll.WithMinCapacity(16),
	)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBackend(PlainColl{c})
	ts := httptest.NewServer(b.Handler())
	t.Cleanup(ts.Close)
	return b, ts
}

// postJSON posts body (as JSON text) and returns the status and decoded
// reply document.
func postJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding reply: %v", err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestBackendRoundTrip(t *testing.T) {
	b, ts := newTestBackend(t)
	status, out := postJSON(t, ts.URL+"/v1/insert",
		`{"docs":[{"id":1,"text":"abracadabra"},{"id":2,"text":"a banana cabana"},{"id":3,"data":"YWJyYQ=="}]}`)
	if status != http.StatusOK || out["inserted"] != float64(3) {
		t.Fatalf("insert: status %d, reply %v", status, out)
	}

	var count CountResponse
	if s := getJSON(t, ts.URL+"/v1/count?q=abra", &count); s != http.StatusOK || count.Count != 3 {
		t.Fatalf("count: status %d, %+v (want 3: two in doc 1, one in doc 3)", s, count)
	}

	resp, err := http.Get(ts.URL + "/v1/find?q=ana")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("find Content-Type = %q, want application/x-ndjson", ct)
	}
	var results []FindResult
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var r FindResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		results = append(results, r)
	}
	if len(results) != 3 { // "banana" twice, "cabana" once
		t.Fatalf("find ana: %d results, want 3: %+v", len(results), results)
	}
	for _, r := range results {
		if r.Doc != 2 {
			t.Errorf("find ana: match in doc %d, want doc 2", r.Doc)
		}
	}

	var ex ExtractResponse
	if s := getJSON(t, ts.URL+"/v1/extract?id=1&off=0&len=11", &ex); s != http.StatusOK || string(ex.Data) != "abracadabra" {
		t.Fatalf("extract: status %d, data %q", s, ex.Data)
	}

	status, out = postJSON(t, ts.URL+"/v1/delete", `{"ids":[2,999]}`)
	if status != http.StatusOK || out["deleted"] != float64(1) {
		t.Fatalf("delete: status %d, reply %v (999 should be skipped)", status, out)
	}
	if getJSON(t, ts.URL+"/v1/count?q=ana", &count); count.Count != 0 {
		t.Fatalf("count after delete = %d, want 0", count.Count)
	}
	if b.Collection().DocCount() != 2 {
		t.Fatalf("DocCount = %d, want 2", b.Collection().DocCount())
	}
}

// TestBatchAtomicityOverTheWire: a batch with one rejectable document
// must land zero documents, and the error envelope must carry the typed
// code.
func TestBatchAtomicityOverTheWire(t *testing.T) {
	b, ts := newTestBackend(t)
	if status, _ := postJSON(t, ts.URL+"/v1/insert", `{"docs":[{"id":1,"text":"existing"}]}`); status != http.StatusOK {
		t.Fatal("seed insert failed")
	}

	// Live-ID collision: doc 2 is valid but must not survive the batch.
	status, out := postJSON(t, ts.URL+"/v1/insert", `{"docs":[{"id":2,"text":"fresh"},{"id":1,"text":"dup"}]}`)
	if status != http.StatusConflict || out["error"] != CodeDuplicateID {
		t.Fatalf("dup batch: status %d, reply %v, want 409/%s", status, out, CodeDuplicateID)
	}
	if b.Collection().Has(2) {
		t.Fatal("batch was not atomic: doc 2 inserted despite the batch failing")
	}

	// In-batch duplicate.
	status, out = postJSON(t, ts.URL+"/v1/insert", `{"docs":[{"id":3,"text":"x"},{"id":3,"text":"y"}]}`)
	if status != http.StatusConflict || out["error"] != CodeDuplicateID {
		t.Fatalf("in-batch dup: status %d, reply %v", status, out)
	}
	if b.Collection().Has(3) {
		t.Fatal("batch was not atomic: doc 3 inserted")
	}

	// Reserved byte (0x00 via base64 "AGE=" = {0x00,'a'}).
	status, out = postJSON(t, ts.URL+"/v1/insert", `{"docs":[{"id":4,"text":"ok"},{"id":5,"data":"AGE="}]}`)
	if status != http.StatusBadRequest || out["error"] != CodeReservedByte {
		t.Fatalf("reserved byte: status %d, reply %v", status, out)
	}
	if b.Collection().Has(4) {
		t.Fatal("batch was not atomic: doc 4 inserted")
	}
	if b.Collection().DocCount() != 1 {
		t.Fatalf("DocCount = %d, want 1 (only the seed)", b.Collection().DocCount())
	}
}

// TestMalformedRequests: every malformed input must come back as a 400
// with the typed bad_request code — never a 500, never a hang.
func TestMalformedRequests(t *testing.T) {
	_, ts := newTestBackend(t)
	cases := []struct {
		name   string
		do     func() (int, map[string]any)
		code   string
		status int
	}{
		{"truncated JSON", func() (int, map[string]any) {
			return postJSON(t, ts.URL+"/v1/insert", `{"docs":[{"id":1,`)
		}, CodeBadRequest, http.StatusBadRequest},
		{"wrong type", func() (int, map[string]any) {
			return postJSON(t, ts.URL+"/v1/insert", `{"docs":"not-an-array"}`)
		}, CodeBadRequest, http.StatusBadRequest},
		{"trailing garbage", func() (int, map[string]any) {
			return postJSON(t, ts.URL+"/v1/insert", `{"docs":[{"id":1,"text":"a"}]} trailing`)
		}, CodeBadRequest, http.StatusBadRequest},
		{"empty batch", func() (int, map[string]any) {
			return postJSON(t, ts.URL+"/v1/insert", `{"docs":[]}`)
		}, CodeBadRequest, http.StatusBadRequest},
		{"missing q", func() (int, map[string]any) {
			var out map[string]any
			s := getJSON(t, ts.URL+"/v1/find", &out)
			return s, out
		}, CodeBadRequest, http.StatusBadRequest},
		{"bad limit", func() (int, map[string]any) {
			var out map[string]any
			s := getJSON(t, ts.URL+"/v1/find?q=a&limit=-3", &out)
			return s, out
		}, CodeBadRequest, http.StatusBadRequest},
		{"bad extract id", func() (int, map[string]any) {
			var out map[string]any
			s := getJSON(t, ts.URL+"/v1/extract?id=zebra&off=0&len=1", &out)
			return s, out
		}, CodeBadRequest, http.StatusBadRequest},
		{"extract absent doc", func() (int, map[string]any) {
			var out map[string]any
			s := getJSON(t, ts.URL+"/v1/extract?id=42&off=0&len=1", &out)
			return s, out
		}, CodeNotFound, http.StatusNotFound},
	}
	for _, tc := range cases {
		status, out := tc.do()
		if status != tc.status || out["error"] != tc.code {
			t.Errorf("%s: status %d error %v, want %d %s", tc.name, status, out["error"], tc.status, tc.code)
		}
		if msg, _ := out["message"].(string); msg == "" {
			t.Errorf("%s: error envelope has no message", tc.name)
		}
	}
}

// TestFindStreamDisconnect: a client that walks away mid-stream must
// stop the enumeration — the server must not burn through the full
// result set for a reader that is gone.
func TestFindStreamDisconnect(t *testing.T) {
	b, ts := newTestBackend(t)
	// ~400k occurrences of "ab" across 200 documents — a ~10MB NDJSON
	// stream, far more than the kernel socket buffers can absorb, so a
	// stream to a dead client must eventually block and fail.
	var docs []string
	for i := 0; i < 200; i++ {
		docs = append(docs, fmt.Sprintf(`{"id":%d,"text":"%s"}`, i+1, strings.Repeat("ab ", 2000)))
	}
	if status, _ := postJSON(t, ts.URL+"/v1/insert", `{"docs":[`+strings.Join(docs, ",")+`]}`); status != http.StatusOK {
		t.Fatal("seed insert failed")
	}
	const total = 400000

	resp, err := http.Get(ts.URL + "/v1/find?q=ab")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 2 && sc.Scan(); i++ {
	}
	resp.Body.Close() // mid-stream disconnect

	// The handler observes the disconnect via context cancellation (or a
	// failed flush) and returns; wait for it to record completion.
	deadline := time.Now().Add(5 * time.Second)
	for b.Metrics().Requests("find") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("find handler did not finish after client disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if streamed := b.Metrics().Streamed("find"); streamed >= total {
		t.Fatalf("server streamed all %d occurrences to a disconnected client", streamed)
	} else {
		t.Logf("streamed %d of %d occurrences before noticing the disconnect", streamed, total)
	}
}

// TestFindLimit: the limit parameter bounds the stream exactly.
func TestFindLimit(t *testing.T) {
	_, ts := newTestBackend(t)
	postJSON(t, ts.URL+"/v1/insert", fmt.Sprintf(`{"docs":[{"id":1,"text":"%s"}]}`, strings.Repeat("xy ", 500)))
	resp, err := http.Get(ts.URL + "/v1/find?q=xy&limit=7")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines++
	}
	if lines != 7 {
		t.Fatalf("limit=7 streamed %d lines", lines)
	}
}

// TestVarz: the metrics document must carry endpoint counters, ladder
// stats, pending rebuilds and shard occupancy.
func TestVarz(t *testing.T) {
	_, ts := newTestBackend(t)
	postJSON(t, ts.URL+"/v1/insert", `{"docs":[{"id":1,"text":"hello hello"}]}`)
	var count CountResponse
	getJSON(t, ts.URL+"/v1/count?q=hello", &count)

	var v Varz
	if s := getJSON(t, ts.URL+"/varz", &v); s != http.StatusOK {
		t.Fatalf("varz status %d", s)
	}
	if v.Role != "backend" || v.Docs != 1 || v.Ladder == nil {
		t.Fatalf("varz = role %q docs %d ladder %v", v.Role, v.Docs, v.Ladder != nil)
	}
	if v.Ladder.Unit != "symbol" || v.Ladder.Live != 11 {
		t.Fatalf("ladder unit %q live %d, want symbol/11", v.Ladder.Unit, v.Ladder.Live)
	}
	if v.Ladder.Shards != 2 || len(v.Ladder.ShardSizes) != 2 {
		t.Fatalf("shard occupancy missing: shards %d sizes %v", v.Ladder.Shards, v.Ladder.ShardSizes)
	}
	if v.Ladder.ShardSizes[0]+v.Ladder.ShardSizes[1] != v.Ladder.Live {
		t.Fatalf("shard sizes %v do not sum to live %d", v.Ladder.ShardSizes, v.Ladder.Live)
	}
	ins, ok := v.Endpoints["insert"]
	if !ok || ins.Requests != 1 || ins.Errors != 0 {
		t.Fatalf("insert endpoint metrics: %+v", ins)
	}
	if cnt := v.Endpoints["count"]; cnt.Requests != 1 {
		t.Fatalf("count endpoint metrics: %+v", cnt)
	}
	if v.Endpoints["find"].Requests != 0 {
		t.Fatalf("find endpoint should have 0 requests, got %+v", v.Endpoints["find"])
	}
}

// onePass is a Reduce pass that sums its part indices.
type onePass struct{}

func (onePass) Fold(acc, i int) int { return acc + i }
func (onePass) Merge(a, b int) int  { return a + b }

// TestVarzTeams: /varz serves the process-wide team counters beside
// built_weight, so an operator can see whether reads used a second core.
func TestVarzTeams(t *testing.T) {
	_, ts := newTestBackend(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	before := fanout.ReadTeamCounts()
	if got, n := fanout.Reduce[int](4*fanout.PartsPerWorker, onePass{}), 4*fanout.PartsPerWorker; got != n*(n-1)/2 {
		t.Fatalf("team pass summed %d", got)
	}
	var raw struct {
		Ladder struct {
			Teams map[string]uint64 `json:"teams"`
		} `json:"ladder"`
	}
	getJSON(t, ts.URL+"/varz", &raw)
	if q, ok := raw.Ladder.Teams["team_queries"]; !ok || q <= before.Passes {
		t.Fatalf("varz teams %v: want team_queries above %d after a team pass", raw.Ladder.Teams, before.Passes)
	}
	if _, ok := raw.Ladder.Teams["helper_parts"]; !ok {
		t.Fatalf("varz teams %v: no helper_parts", raw.Ladder.Teams)
	}
}

// TestHistogram pins the bucket mapping and sanity-checks quantiles.
func TestHistogram(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0}, {time.Microsecond, 0}, {2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2}, {4 * time.Microsecond, 2},
		{5 * time.Microsecond, 3}, {time.Millisecond, 10},
		{time.Second, 20}, {time.Hour, histBuckets - 1},
	}
	for _, tc := range cases {
		if got := bucketOf(tc.d); got != tc.want {
			t.Errorf("bucketOf(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}

	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(50 * time.Millisecond)
	}
	if p50 := h.Quantile(0.50); p50 < 64*time.Microsecond || p50 > 128*time.Microsecond {
		t.Errorf("p50 = %v, want within the 100µs bucket (64µs, 128µs]", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 32*time.Millisecond || p99 > 50*time.Millisecond {
		t.Errorf("p99 = %v, want within the 50ms bucket capped at max", p99)
	}
	if h.Quantile(1.0) != 50*time.Millisecond {
		t.Errorf("p100 = %v, want the observed max", h.Quantile(1.0))
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
}
