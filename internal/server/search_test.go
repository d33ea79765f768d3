package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dyncoll"
)

// searchLines GETs or POSTs a /v1/search request and decodes the NDJSON
// stream.
func searchLines(t *testing.T, url string) []SearchResult {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("search Content-Type = %q, want application/x-ndjson", ct)
	}
	var out []SearchResult
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var r SearchResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if r.Err != "" {
			t.Fatalf("in-band error trailer: %s", r.Err)
		}
		out = append(out, r)
	}
	return out
}

// TestBackendSearch: the /v1/search endpoint runs exact, regex and
// ranked plans on one backend, GET and POST forms agreeing.
func TestBackendSearch(t *testing.T) {
	_, ts := newTestBackend(t)
	postJSON(t, ts.URL+"/v1/insert", `{"docs":[
		{"id":1,"text":"the quick brown fox"},
		{"id":2,"text":"quick quick quick"},
		{"id":3,"text":"nothing to see"},
		{"id":4,"text":"quack quock quick"}]}`)

	// Exact stream.
	got := searchLines(t, ts.URL+"/v1/search?q=quick")
	if len(got) != 5 {
		t.Fatalf("exact search: %d results, want 5", len(got))
	}
	for _, r := range got {
		if r.Len != 5 || r.Score != 0 {
			t.Fatalf("exact stream result %+v: want Len=5, no score", r)
		}
	}

	// Regex: qu.ck matches quick (×5), quack, quock.
	if got = searchLines(t, ts.URL+"/v1/search?q=qu.ck&regex=1"); len(got) != 7 {
		t.Fatalf("regex search: %d results, want 7: %+v", len(got), got)
	}

	// Ranked: one result per matching document, best first. Doc 2 has
	// the most occurrences of "quick" at offset 0 — it must win.
	got = searchLines(t, ts.URL+"/v1/search?q=quick&ranked=1&k=2")
	if len(got) != 2 {
		t.Fatalf("ranked search: %d results, want 2", len(got))
	}
	if got[0].Doc != 2 || got[0].Score <= got[1].Score {
		t.Fatalf("ranked order wrong: %+v", got)
	}

	// POST carries the same spec as a JSON body.
	resp, err := http.Post(ts.URL+"/v1/search", "application/json",
		strings.NewReader(`{"q":"qu.ck","regex":true,"ranked":true,"k":10}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines++
	}
	if resp.StatusCode != http.StatusOK || lines != 3 {
		t.Fatalf("POST ranked regex: status %d, %d docs, want 3 (docs 1, 2, 4)", resp.StatusCode, lines)
	}
}

// TestBackendSearchUnionK: an unscoped search on a backend hosting
// several rows runs over the union of its collections, and k bounds the
// union's stream, not each collection's.
func TestBackendSearchUnionK(t *testing.T) {
	newColl := func() (Coll, error) {
		c, err := dyncoll.NewCollection(dyncoll.WithShards(2), dyncoll.WithSyncRebuilds())
		return PlainColl{c}, err
	}
	def, err := newColl()
	if err != nil {
		t.Fatal(err)
	}
	b := NewBackend(def).EnableRanges(func(int) (Coll, error) { return newColl() })
	ts := httptest.NewServer(b.Handler())
	t.Cleanup(ts.Close)
	for rng, id := range []int{1, 2} {
		url := fmt.Sprintf("%s/v1/insert?range=%d", ts.URL, rng)
		if status, out := postJSON(t, url, fmt.Sprintf(`{"docs":[{"id":%d,"text":"abcabcabcabc"}]}`, id)); status != http.StatusOK {
			t.Fatalf("insert into range %d: %d %v", rng, status, out)
		}
	}
	for q, want := range map[string]int{
		"q=abc&k=3": 3, "q=abc&k=3&range=0": 3, "q=a.c&k=3&regex=1": 3, "q=abc&k=1&ranked=1": 1,
	} {
		if got := searchLines(t, ts.URL+"/v1/search?"+q); len(got) != want {
			t.Errorf("search?%s: %d results, want %d", q, len(got), want)
		}
	}
}

// TestSearchBadPlan: malformed plans reject with a typed 400 before any
// streaming starts, on backend and frontend alike.
func TestSearchBadPlan(t *testing.T) {
	_, bts := newTestBackend(t)
	fts, _, _ := newRangedCluster(t, 2, 1)
	for _, base := range []string{bts.URL, fts.URL} {
		for _, q := range []string{"q=a(&regex=1", "q=x&k=-1", "q=" + "%5B" + "&regex=true"} {
			var out map[string]any
			if s := getJSON(t, base+"/v1/search?"+q, &out); s != http.StatusBadRequest || out["error"] != CodeBadRequest {
				t.Errorf("search?%s at %s: status %d reply %v, want 400 %s", q, base, s, out, CodeBadRequest)
			}
		}
	}
}

// TestFrontendSearchRankedMerge: a ranked query over the fleet merges
// the per-backend exact top-k lists into the exact global top-k — docs
// from both backends, unique, best-first.
func TestFrontendSearchRankedMerge(t *testing.T) {
	fts, backends, _ := newRangedCluster(t, 2, 1)
	// Doc i contains "needle" i times; higher IDs score higher on match
	// count but all docs share the same length band.
	var docs []string
	for id := uint64(1); id <= 16; id++ {
		text := strings.Repeat("needle ", int(id)) + strings.Repeat("pad ", 20-int(id))
		docs = append(docs, fmt.Sprintf(`{"id":%d,"text":"%s"}`, id, strings.TrimSpace(text)))
	}
	postJSON(t, fts.URL+"/v1/insert", `{"docs":[`+strings.Join(docs, ",")+`]}`)

	got := searchLines(t, fts.URL+"/v1/search?q=needle&ranked=1&k=5")
	if len(got) != 5 {
		t.Fatalf("ranked merge: %d results, want 5", len(got))
	}
	seen := map[uint64]bool{}
	for i, r := range got {
		if seen[r.Doc] {
			t.Fatalf("doc %d ranked twice in merged output", r.Doc)
		}
		seen[r.Doc] = true
		if i > 0 && got[i-1].Score < r.Score {
			t.Fatalf("merged ranking out of order: %+v after %+v", r, got[i-1])
		}
	}
	// More occurrences at equal first-offset and similar length wins:
	// the global best five are docs 16..12 regardless of placement.
	for _, want := range []uint64{16, 15, 14, 13, 12} {
		if !seen[want] {
			t.Fatalf("global top-5 missing doc %d: %+v", want, got)
		}
	}
	// Exactness requires contributions from both backends: with 16 docs
	// spread by hash, both must hold at least one top-5 doc or the test
	// corpus needs reshaping — assert the placement assumption holds.
	bothServed := 0
	for i, b := range backends {
		for id := range seen {
			if b.Ranges()[i].Has(id) {
				bothServed++
				break
			}
		}
	}
	if bothServed != 2 {
		t.Fatalf("top-5 docs all landed on one backend; merge not exercised")
	}
}

// TestFrontendSearchEarlyBreak is the end-to-end early-break property:
// a top-k query through the frontend must cancel backend shard
// enumeration mid-stream — each backend streams at most k of its
// ~20000 matching occurrences, because the k-bound travels inside the
// plan and the executor stops enumerating once it is met.
func TestFrontendSearchEarlyBreak(t *testing.T) {
	fts, backends, _ := newRangedCluster(t, 2, 1)
	var docs []string
	for id := uint64(1); id <= 20; id++ {
		docs = append(docs, fmt.Sprintf(`{"id":%d,"text":"%s"}`, id, strings.Repeat("qq ", 2000)))
	}
	postJSON(t, fts.URL+"/v1/insert", `{"docs":[`+strings.Join(docs, ",")+`]}`)
	const total = 40000 // 20 docs × 2000 occurrences

	got := searchLines(t, fts.URL+"/v1/search?q=qq&k=5")
	if len(got) != 5 {
		t.Fatalf("k=5 through frontend streamed %d results", len(got))
	}

	// Wait for both backend handlers to record completion, then check
	// how much each actually enumerated.
	deadline := time.Now().Add(5 * time.Second)
	for backends[0].Metrics().Requests("search")+backends[1].Metrics().Requests("search") < 2 {
		if time.Now().After(deadline) {
			t.Fatal("backend search handlers did not finish")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, b := range backends {
		if n := b.Metrics().Streamed("search"); n > 5 {
			t.Errorf("backend %d streamed %d of %d occurrences despite k=5 (early break did not propagate)", i, n, total)
		}
	}
}

// TestBackendSearchDisconnect: a client that walks away from an
// unbounded /v1/search must stop the enumeration mid-stream via context
// cancellation — the flush-and-cancel contract of /v1/find, on the new
// endpoint.
func TestBackendSearchDisconnect(t *testing.T) {
	b, ts := newTestBackend(t)
	var docs []string
	for i := 0; i < 200; i++ {
		docs = append(docs, fmt.Sprintf(`{"id":%d,"text":"%s"}`, i+1, strings.Repeat("ab ", 2000)))
	}
	if status, _ := postJSON(t, ts.URL+"/v1/insert", `{"docs":[`+strings.Join(docs, ",")+`]}`); status != http.StatusOK {
		t.Fatal("seed insert failed")
	}
	const total = 400000

	resp, err := http.Get(ts.URL + "/v1/search?q=ab")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 2 && sc.Scan(); i++ {
	}
	resp.Body.Close() // mid-stream disconnect

	deadline := time.Now().Add(5 * time.Second)
	for b.Metrics().Requests("search") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("search handler did not finish after client disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if streamed := b.Metrics().Streamed("search"); streamed >= total {
		t.Fatalf("server streamed all %d occurrences to a disconnected client", streamed)
	} else {
		t.Logf("streamed %d of %d occurrences before noticing the disconnect", streamed, total)
	}
}
