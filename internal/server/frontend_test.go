package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dyncoll/internal/shardmap"
)

// TestFrontendRouting: documents inserted through an R=1 frontend must
// land in exactly the row shardmap.BackendFor assigns, on the backend of
// that row, and extract must route back to that owner.
func TestFrontendRouting(t *testing.T) {
	fts, backends, _ := newRangedCluster(t, 2, 1)

	const nDocs = 60
	var docs []string
	for id := uint64(1); id <= nDocs; id++ {
		docs = append(docs, fmt.Sprintf(`{"id":%d,"text":"doc %d payload"}`, id, id))
	}
	status, out := postJSON(t, fts.URL+"/v1/insert", `{"docs":[`+strings.Join(docs, ",")+`]}`)
	if status != http.StatusOK || out["inserted"] != float64(nDocs) {
		t.Fatalf("insert via frontend: status %d, reply %v", status, out)
	}

	rows := []Coll{backends[0].Ranges()[0], backends[1].Ranges()[1]}
	if rows[0] == nil || rows[1] == nil || rows[0].DocCount()+rows[1].DocCount() != nDocs {
		t.Fatalf("backends hold %d documents, want %d over both rows", backends[0].DocCountAll()+backends[1].DocCountAll(), nDocs)
	}
	for id := uint64(1); id <= nDocs; id++ {
		owner := shardmap.BackendFor(id, 2)
		if !rows[owner].Has(id) {
			t.Errorf("doc %d missing from its row on backend %d", id, owner)
		}
		if rows[1-owner].Has(id) {
			t.Errorf("doc %d duplicated in row %d", id, 1-owner)
		}
	}

	// Extract through the frontend proxies to the owner.
	for _, id := range []uint64{1, 2, 7, 42} {
		var ex ExtractResponse
		if s := getJSON(t, fmt.Sprintf("%s/v1/extract?id=%d&off=0&len=3", fts.URL, id), &ex); s != http.StatusOK || string(ex.Data) != "doc" {
			t.Fatalf("extract doc %d via frontend: status %d data %q", id, s, ex.Data)
		}
	}
	var er map[string]any
	if s := getJSON(t, fts.URL+"/v1/extract?id=9999&off=0&len=1", &er); s != http.StatusNotFound || er["error"] != CodeNotFound {
		t.Fatalf("extract of absent doc: status %d reply %v", s, er)
	}

	// Delete through the frontend routes each ID to its owner.
	status, out = postJSON(t, fts.URL+"/v1/delete", `{"ids":[1,2,3,9999]}`)
	if status != http.StatusOK || out["deleted"] != float64(3) {
		t.Fatalf("delete via frontend: status %d reply %v", status, out)
	}
	for _, row := range rows {
		for _, id := range []uint64{1, 2, 3} {
			if row.Has(id) {
				t.Errorf("doc %d survived a frontend delete", id)
			}
		}
	}
}

// TestFrontendMergedQueries: count must sum across backends and find
// must merge both NDJSON streams.
func TestFrontendMergedQueries(t *testing.T) {
	fts, backends, _ := newRangedCluster(t, 2, 1)
	var docs []string
	for id := uint64(1); id <= 40; id++ {
		docs = append(docs, fmt.Sprintf(`{"id":%d,"text":"needle and thread %d"}`, id, id))
	}
	postJSON(t, fts.URL+"/v1/insert", `{"docs":[`+strings.Join(docs, ",")+`]}`)

	var count CountResponse
	if s := getJSON(t, fts.URL+"/v1/count?q=needle", &count); s != http.StatusOK || count.Count != 40 {
		t.Fatalf("merged count: status %d count %d, want 40", s, count.Count)
	}
	perBackend := backends[0].Ranges()[0].Count([]byte("needle")) + backends[1].Ranges()[1].Count([]byte("needle"))
	if count.Count != perBackend {
		t.Fatalf("frontend count %d != per-backend sum %d", count.Count, perBackend)
	}

	resp, err := http.Get(fts.URL + "/v1/find?q=needle")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	seen := make(map[uint64]bool)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var r FindResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad merged NDJSON line %q: %v", sc.Text(), err)
		}
		if r.Err != "" {
			t.Fatalf("unexpected error trailer: %s", r.Err)
		}
		seen[r.Doc] = true
	}
	if len(seen) != 40 {
		t.Fatalf("merged find saw %d distinct docs, want 40", len(seen))
	}

	// R=2 over three ranged backends: every row is answered by one of
	// its two replicas, so nothing is counted or streamed twice.
	rts, _, _ := newRangedCluster(t, 3, 2)
	postJSON(t, rts.URL+"/v1/insert", `{"docs":[`+strings.Join(docs, ",")+`]}`)
	if s := getJSON(t, rts.URL+"/v1/count?q=needle", &count); s != http.StatusOK || count.Count != 40 || count.Partial {
		t.Fatalf("R=2 merged count: status %d %+v, want 40", s, count)
	}
	lines, trailer, status := findLines(t, rts.URL+"/v1/find?q=needle")
	seen = make(map[uint64]bool)
	for _, r := range lines {
		seen[r.Doc] = true
	}
	if status != http.StatusOK || trailer != nil || len(lines) != 40 || len(seen) != 40 {
		t.Fatalf("R=2 merged find: status %d trailer %v, %d lines over %d docs, want 40 over 40", status, trailer, len(lines), len(seen))
	}
}

// TestFrontendFindLimit: a limit through the frontend bounds the merged
// stream exactly, and the early break propagates so backends stop
// streaming shortly after.
func TestFrontendFindLimit(t *testing.T) {
	fts, backends, _ := newRangedCluster(t, 2, 1)
	var docs []string
	for id := uint64(1); id <= 20; id++ {
		docs = append(docs, fmt.Sprintf(`{"id":%d,"text":"%s"}`, id, strings.Repeat("qq ", 2000)))
	}
	postJSON(t, fts.URL+"/v1/insert", `{"docs":[`+strings.Join(docs, ",")+`]}`)
	const total = 40000 // 20 docs × 2000 occurrences

	resp, err := http.Get(fts.URL + "/v1/find?q=qq&limit=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines++
	}
	if lines != 5 {
		t.Fatalf("limit=5 through frontend streamed %d lines", lines)
	}

	// The frontend forwards the limit to each backend, so neither should
	// stream more than the limit (wait for both handlers to finish).
	deadline := time.Now().Add(5 * time.Second)
	for backends[0].Metrics().Requests("find")+backends[1].Metrics().Requests("find") < 2 {
		if time.Now().After(deadline) {
			t.Fatal("backend find handlers did not finish")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, b := range backends {
		if n := b.Metrics().Streamed("find"); n > 5 {
			t.Errorf("backend %d streamed %d occurrences despite limit=5 (early break did not propagate)", i, n)
		}
	}
	_ = total

	// R=2 over three ranged backends: one request per group of the rows'
	// cover — rows {0,2} on backend 0, row {1} on backend 1 — each bounded
	// by the limit.
	rts, ranged, _ := newRangedCluster(t, 3, 2)
	postJSON(t, rts.URL+"/v1/insert", `{"docs":[`+strings.Join(docs, ",")+`]}`)
	if lines, trailer, status := findLines(t, rts.URL+"/v1/find?q=qq&limit=5"); status != http.StatusOK || trailer != nil || len(lines) != 5 {
		t.Fatalf("R=2 limit=5: status %d trailer %v, %d lines", status, trailer, len(lines))
	}
	groups := 2
	requests := func() (n int64) {
		for _, b := range ranged {
			n += b.Metrics().Requests("find")
		}
		return n
	}
	deadline = time.Now().Add(5 * time.Second)
	for requests() < int64(groups) {
		if time.Now().After(deadline) {
			t.Fatal("R=2 backend find handlers did not finish")
		}
		time.Sleep(10 * time.Millisecond)
	}
	streamed := int64(0)
	for _, b := range ranged {
		streamed += b.Metrics().Streamed("find")
	}
	if streamed > int64(5*groups) {
		t.Errorf("R=2 backends streamed %d occurrences for %d group requests with limit=5", streamed, groups)
	}
}

// TestFrontendBatchAtomicityLocalChecks: batches the frontend can reject
// locally (in-batch duplicates, reserved bytes) must reach no backend.
func TestFrontendBatchAtomicityLocalChecks(t *testing.T) {
	fts, backends, _ := newRangedCluster(t, 2, 1)
	status, out := postJSON(t, fts.URL+"/v1/insert", `{"docs":[{"id":10,"text":"x"},{"id":10,"text":"y"}]}`)
	if status != http.StatusConflict || out["error"] != CodeDuplicateID {
		t.Fatalf("in-batch dup via frontend: status %d reply %v", status, out)
	}
	status, out = postJSON(t, fts.URL+"/v1/insert", `{"docs":[{"id":11,"text":"ok"},{"id":12,"data":"AGE="}]}`)
	if status != http.StatusBadRequest || out["error"] != CodeReservedByte {
		t.Fatalf("reserved byte via frontend: status %d reply %v", status, out)
	}
	for i, b := range backends {
		if n := b.DocCountAll(); n != 0 {
			t.Errorf("backend %d holds %d doc(s) after rejected batches, want 0", i, n)
		}
	}
}

// TestFrontendBackendDown: with a backend gone, routable ops to the dead
// backend and whole-fleet queries must fail loudly — never a silently
// partial count.
func TestFrontendBackendDown(t *testing.T) {
	fts, _, servers := newRangedCluster(t, 2, 1)
	postJSON(t, fts.URL+"/v1/insert", `{"docs":[{"id":1,"text":"before the fall"}]}`)
	servers[1].Close() // backend 1 goes away

	var out map[string]any
	if s := getJSON(t, fts.URL+"/v1/count?q=before", &out); s != http.StatusBadGateway || out["error"] != CodeUnreachable {
		t.Fatalf("count with dead backend: status %d reply %v, want 502 %s", s, out, CodeUnreachable)
	}

	// A find that streams nothing before the fault is a clean 502.
	if s := getJSON(t, fts.URL+"/v1/find?q=nosuchword", &out); s != http.StatusBadGateway || out["error"] != CodeUnreachable {
		t.Fatalf("find with dead backend: status %d reply %v", s, out)
	}

	// Ops routable to the dead owner fail; ops owned by the live backend
	// still work. Golden assignments under n=2: key 1 → backend 1 (now
	// dead), key 2 → backend 0 (alive).
	deadOwned, liveOwned := uint64(1), uint64(2)
	if shardmap.BackendFor(deadOwned, 2) != 1 || shardmap.BackendFor(liveOwned, 2) != 0 {
		t.Fatal("test assumption broken: key ownership changed")
	}
	status, out := postJSON(t, fts.URL+"/v1/insert", fmt.Sprintf(`{"docs":[{"id":%d,"text":"still alive"}]}`, liveOwned))
	if status != http.StatusOK {
		t.Fatalf("insert owned by live backend failed: status %d reply %v", status, out)
	}
	status, out = postJSON(t, fts.URL+"/v1/delete", fmt.Sprintf(`{"ids":[%d]}`, deadOwned))
	if status != http.StatusBadGateway || out["error"] != CodeUnreachable {
		t.Fatalf("delete routed to dead backend: status %d reply %v", status, out)
	}
}

// TestFrontendVarz: the frontend's varz must report per-backend health.
func TestFrontendVarz(t *testing.T) {
	fts, _, servers := newRangedCluster(t, 2, 1)
	postJSON(t, fts.URL+"/v1/insert", `{"docs":[{"id":1,"text":"hello"},{"id":2,"text":"world"},{"id":3,"text":"again"}]}`)

	var v Varz
	if s := getJSON(t, fts.URL+"/varz", &v); s != http.StatusOK {
		t.Fatalf("frontend varz status %d", s)
	}
	if v.Role != "frontend" || len(v.Backends) != 2 {
		t.Fatalf("frontend varz: role %q, %d backend(s)", v.Role, len(v.Backends))
	}
	var docs int
	for _, b := range v.Backends {
		if !b.OK {
			t.Fatalf("backend %s reported unhealthy: %s", b.URL, b.Error)
		}
		docs += b.Docs
	}
	if docs != 3 {
		t.Fatalf("backends report %d docs total, want 3", docs)
	}

	servers[0].Close()
	if getJSON(t, fts.URL+"/varz", &v); len(v.Backends) != 2 {
		t.Fatal("varz must still list dead backends")
	}
	okCount := 0
	for _, b := range v.Backends {
		if b.OK {
			okCount++
		} else if b.Error == "" {
			t.Errorf("dead backend %s has no error string", b.URL)
		}
	}
	if okCount != 1 {
		t.Fatalf("%d backends healthy after killing one of two", okCount)
	}
}

// TestFrontendExtractRouting: the frontend routes an extract by the
// document's row alone — a range parameter the client adds cannot
// redirect the backend request to another row.
func TestFrontendExtractRouting(t *testing.T) {
	fts, _, _ := newRangedCluster(t, 3, 2)
	postJSON(t, fts.URL+"/v1/insert", `{"docs":[{"id":1,"text":"hello world"}]}`)
	row := shardmap.NewAssignment(3, 2).RowOf(1)
	for _, rng := range []int{0, 1, 2} {
		var ex ExtractResponse
		url := fmt.Sprintf("%s/v1/extract?id=1&off=0&len=5&range=%d", fts.URL, rng)
		if s := getJSON(t, url, &ex); s != http.StatusOK || string(ex.Data) != "hello" {
			t.Errorf("extract with range=%d (document in row %d): status %d data %q", rng, row, s, ex.Data)
		}
	}
}

// TestFrontendVarzRanged: under replication a backend's ladder report
// covers the row collections it hosts, so the frontend sees every
// backend's symbols, and each hosted row reports its own documents and
// ladder.
func TestFrontendVarzRanged(t *testing.T) {
	fts, backends, _ := newRangedCluster(t, 2, 2)
	postJSON(t, fts.URL+"/v1/insert", `{"docs":[{"id":1,"text":"hello"},{"id":2,"text":"world!"}]}`)
	for i, b := range backends {
		ts := httptest.NewServer(b.Handler())
		t.Cleanup(ts.Close)
		var v Varz
		getJSON(t, ts.URL+"/varz", &v)
		if v.Docs != 2 || len(v.RangeDocs) == 0 {
			t.Fatalf("backend %d: docs %d range_docs %v, want 2 docs in rows", i, v.Docs, v.RangeDocs)
		}
		if v.Ladder.Live != 11 || v.Ladder.SizeBits <= 0 || v.Ladder.BitsPerUnit <= 0 {
			t.Errorf("backend %d ladder: live %d size_bits %d bits_per_unit %v, want 11 live symbols and a size",
				i, v.Ladder.Live, v.Ladder.SizeBits, v.Ladder.BitsPerUnit)
		}
		docs, live := 0, 0
		for rng, row := range v.RangeDocs {
			if len(row.Ladder.Levels) == 0 || len(row.Ladder.ShardSizes) != 2 {
				t.Errorf("backend %d row %s ladder: %d levels, shard sizes %v", i, rng, len(row.Ladder.Levels), row.Ladder.ShardSizes)
			}
			docs += row.Docs
			live += row.Ladder.Live
		}
		if docs != 2 || live != 11 {
			t.Errorf("backend %d rows hold %d docs and %d symbols, want 2 and 11", i, docs, live)
		}
	}
	var v Varz
	getJSON(t, fts.URL+"/varz", &v)
	for _, b := range v.Backends {
		if b.Symbols != 11 {
			t.Errorf("frontend varz: backend %s symbols %d, want 11", b.URL, b.Symbols)
		}
	}
}

// TestFrontendExtractOversizedReply: a backend extract reply larger
// than the frontend relays (maxBodyBytes) is refused with an error
// envelope, never relayed cut — a truncated body would reach the client
// as a 200 that does not parse.
func TestFrontendExtractOversizedReply(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"id":1,"off":0,"data":"`)
		chunk := strings.Repeat("A", 1<<20)
		for i := 0; i < maxBodyBytes>>20; i++ {
			io.WriteString(w, chunk)
		}
		io.WriteString(w, strings.Repeat("A", 1<<10)+`"}`+"\n")
	}))
	t.Cleanup(fake.Close)
	fe, err := NewFrontendConfig(FrontendConfig{Backends: []string{fake.URL}})
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(fe.Handler())
	t.Cleanup(fts.Close)
	resp, err := http.Get(fts.URL + "/v1/extract?id=1&off=0&len=100000000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("status %d, body does not parse: %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusBadGateway || e.Error != CodeInternal {
		t.Fatalf("oversized extract reply: status %d %+v, want 502 %s", resp.StatusCode, e, CodeInternal)
	}
}
