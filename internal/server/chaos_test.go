package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dyncoll"
	"dyncoll/internal/faultnet"
)

// The chaos suite drives a replicated fleet through faultnet proxies
// and asserts the three promises the fault-tolerance layer makes:
// zero wrong answers (every successful reply is within provable
// bounds), zero silent partials (degradation is always labeled), and
// bounded recovery (a revived backend rejoins through the half-open
// probe without operator action).

// chaosConfig is the test tuning: short deadlines and cooldowns so a
// full kill→recover cycle fits in a few hundred milliseconds.
func chaosConfig(replication int) FrontendConfig {
	return FrontendConfig{
		Replication: replication,
		OpTimeout:   500 * time.Millisecond,
		Retry:       RetryPolicy{Attempts: 4, Base: 10 * time.Millisecond, Max: 100 * time.Millisecond},
		Breaker:     BreakerConfig{Failures: 3, Cooldown: 300 * time.Millisecond},
		HedgeDelay:  -1, // hedging exercised by its own test
	}
}

// newChaosCluster builds n range-hosting backends, one faultnet proxy
// in front of each, and a frontend (per cfg) routing through the
// proxies — so tests can kill, black-hole, slow, and revive any backend
// at any moment without touching the processes.
func newChaosCluster(t *testing.T, n int, cfg FrontendConfig) (*httptest.Server, *Frontend, []*Backend, []*faultnet.Proxy) {
	t.Helper()
	factory := func(rng int) (Coll, error) {
		c, err := dyncoll.NewCollection(
			dyncoll.WithShards(2),
			dyncoll.WithSyncRebuilds(),
			dyncoll.WithMinCapacity(16),
		)
		if err != nil {
			return nil, err
		}
		return PlainColl{c}, nil
	}
	var backends []*Backend
	var proxies []*faultnet.Proxy
	var addrs []string
	for i := 0; i < n; i++ {
		def, err := factory(-1)
		if err != nil {
			t.Fatal(err)
		}
		b := NewBackend(def).EnableRanges(factory)
		ts := httptest.NewServer(b.Handler())
		t.Cleanup(ts.Close)
		p, err := faultnet.New(strings.TrimPrefix(ts.URL, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		backends = append(backends, b)
		proxies = append(proxies, p)
		addrs = append(addrs, p.Addr())
	}
	cfg.Backends = addrs
	fe, err := NewFrontendConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(fe.Handler())
	t.Cleanup(fts.Close)
	return fts, fe, backends, proxies
}

// kill emulates a SIGKILLed backend at the network level: new
// connections are refused and every established one is reset.
func kill(p *faultnet.Proxy) {
	p.SetMode(faultnet.Refuse)
	p.CutConns()
}

// revive heals the network path (the backend process kept its state).
func revive(p *faultnet.Proxy) { p.SetMode(faultnet.Pass) }

// insertDoc inserts one document through the frontend and reports
// whether it was acked on all replicas.
func insertDoc(t *testing.T, base string, id uint64, text string) bool {
	t.Helper()
	body := fmt.Sprintf(`{"docs":[{"id":%d,"text":%q}]}`, id, text)
	resp, err := http.Post(base+"/v1/insert", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("insert transport: %v", err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode == http.StatusOK
}

// findLines reads a full find stream, returning data lines and trailer
// (nil if none).
func findLines(t *testing.T, url string) (lines []FindResult, trailer *FindResult, status int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("find transport: %v", err)
	}
	defer resp.Body.Close()
	status = resp.StatusCode
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var fr FindResult
		if err := json.Unmarshal(sc.Bytes(), &fr); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if fr.Err != "" {
			trailer = &fr
			continue
		}
		lines = append(lines, fr)
	}
	return lines, trailer, status
}

// TestChaosKillReviveUnderLoad is the acceptance test: with R=2, one
// backend is killed mid-stream under live mixed load. Reads must answer
// throughout, every successful count must stay within provable bounds
// (zero wrong answers), the frontend must report itself degraded while
// the replica is down, and the revived backend must rejoin through the
// half-open probe — all asserted.
func TestChaosKillReviveUnderLoad(t *testing.T) {
	fts, fe, _, proxies := newChaosCluster(t, 2, chaosConfig(2))

	const seed = 40
	docs := make([]string, 0, seed)
	for i := 1; i <= seed; i++ {
		docs = append(docs, fmt.Sprintf(`{"id":%d,"text":"needle %d"}`, i, i))
	}
	status, _ := postJSON(t, fts.URL+"/v1/insert", `{"docs":[`+strings.Join(docs, ",")+`]}`)
	if status != http.StatusOK {
		t.Fatalf("seed insert: status %d", status)
	}

	// Mixed load: one writer (fresh IDs, never reused — a failed insert's
	// ID is abandoned, so an ambiguous partial write can never collide),
	// one reader asserting the correctness bound on every count. The
	// writer inserts under writeGate's read lock, so the test can hold it.
	var acked, attempted, writeFails, reads atomic.Int64
	var readErr atomic.Pointer[string]
	var writeGate sync.RWMutex
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		id := uint64(10_000)
		for {
			select {
			case <-stop:
				return
			default:
			}
			id++
			writeGate.RLock()
			attempted.Add(1)
			if insertDoc(t, fts.URL, id, fmt.Sprintf("needle w%d", id)) {
				acked.Add(1)
			} else {
				writeFails.Add(1)
			}
			writeGate.RUnlock()
		}
	}()
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			ackedBefore := acked.Load()
			var out CountResponse
			resp, err := http.Get(fts.URL + "/v1/count?q=needle")
			if err != nil {
				msg := fmt.Sprintf("count transport error during chaos: %v", err)
				readErr.CompareAndSwap(nil, &msg)
				return
			}
			code := resp.StatusCode
			json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			attemptedAfter := attempted.Load()
			if code != http.StatusOK {
				msg := fmt.Sprintf("count returned status %d during chaos (reads must answer throughout)", code)
				readErr.CompareAndSwap(nil, &msg)
				return
			}
			if out.Partial {
				msg := "count reported partial without ?partial=true (silent degradation)"
				readErr.CompareAndSwap(nil, &msg)
				return
			}
			// Zero wrong answers: acked writes are on every replica, so any
			// replica's answer includes them; nothing beyond the attempted
			// set can exist.
			if int64(out.Count) < seed+ackedBefore || int64(out.Count) > seed+attemptedAfter {
				msg := fmt.Sprintf("count %d outside provable bounds [%d, %d]",
					out.Count, seed+ackedBefore, seed+attemptedAfter)
				readErr.CompareAndSwap(nil, &msg)
				return
			}
			reads.Add(1)
		}
	}()

	time.Sleep(150 * time.Millisecond) // healthy load
	// Hold the writer from the kill until a read begun after it has
	// answered. Three failed writes would trip backend 0's breaker, and
	// reads would then skip backend 0 without a retry; held, at most one
	// read was cut, so the next one still finds the breaker closed, tries
	// backend 0 first, fails and retries on backend 1.
	writeGate.Lock()
	kill(proxies[0])
	for n := reads.Load(); reads.Load() < n+2 && readErr.Load() == nil; {
		time.Sleep(time.Millisecond)
	}
	writeGate.Unlock()

	// Degraded: /readyz must flip to 503 naming the dead backend once its
	// breaker trips.
	deadline := time.Now().Add(3 * time.Second)
	degraded := false
	for time.Now().Before(deadline) {
		var rz ReadyzResponse
		code := getJSON(t, fts.URL+"/readyz", &rz)
		if code == http.StatusServiceUnavailable && !rz.Ready && len(rz.Unhealthy) > 0 {
			degraded = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !degraded {
		t.Error("frontend never reported 503 readyz while a replica was dead")
	}

	time.Sleep(300 * time.Millisecond) // sustained outage under load
	revive(proxies[0])

	// Recovery: the breaker must walk open → half-open probe → closed on
	// live traffic alone, and /readyz must return to 200.
	recovered := false
	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		var rz ReadyzResponse
		if code := getJSON(t, fts.URL+"/readyz", &rz); code == http.StatusOK && rz.Ready {
			recovered = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !recovered {
		t.Error("frontend never recovered to ready after revive")
	}
	time.Sleep(100 * time.Millisecond) // post-recovery load
	close(stop)
	<-writerDone
	<-readerDone
	if msg := readErr.Load(); msg != nil {
		t.Fatal(*msg)
	}
	if writeFails.Load() == 0 {
		t.Error("no write ever failed: the kill did not bite (test is vacuous)")
	}
	if acked.Load() == 0 {
		t.Error("no write ever succeeded")
	}

	// Final exactness: count and find must agree with each other and sit
	// within the write bounds; the stream must be complete (no trailer).
	var out CountResponse
	if code := getJSON(t, fts.URL+"/v1/count?q=needle", &out); code != http.StatusOK {
		t.Fatalf("final count: status %d", code)
	}
	if int64(out.Count) < seed+acked.Load() || int64(out.Count) > seed+attempted.Load() {
		t.Errorf("final count %d outside [%d, %d]", out.Count, seed+acked.Load(), seed+attempted.Load())
	}
	lines, trailer, _ := findLines(t, fts.URL+"/v1/find?q=needle")
	if trailer != nil {
		t.Errorf("find after recovery still partial: %s", trailer.Err)
	}
	if len(lines) != out.Count {
		t.Errorf("find streamed %d lines, count says %d", len(lines), out.Count)
	}
	seen := make(map[uint64]bool, len(lines))
	for _, l := range lines {
		if seen[l.Doc] {
			t.Fatalf("document %d appeared twice in the stream (retry duplicated results)", l.Doc)
		}
		seen[l.Doc] = true
	}

	// The breaker's journey is visible in /varz: at least one trip, at
	// least one admitted probe, and a closed final state.
	var vz Varz
	getJSON(t, fts.URL+"/varz", &vz)
	b0 := vz.Backends[0]
	if b0.Trips == 0 {
		t.Error("breaker for the killed backend never tripped")
	}
	if b0.Probes == 0 {
		t.Error("breaker never admitted a half-open probe")
	}
	if b0.Breaker != BreakerClosed {
		t.Errorf("breaker state %q after recovery, want closed", b0.Breaker)
	}
	if fe.Metrics().Counter("retries") == 0 {
		t.Error("no retry was ever recorded under chaos")
	}
}

// TestChaosMidStreamCut: cutting a backend's connections while a find
// stream is in flight must yield either a complete result or an
// explicitly partial one (error trailer with partial:true) — never a
// silently truncated stream, never duplicates. The black-hole leg then
// proves the stall watchdog: with one replica wedged BEFORE the stream
// starts, the row retries onto its sibling and delivers complete
// results.
func TestChaosMidStreamCut(t *testing.T) {
	fts, _, _, proxies := newChaosCluster(t, 2, chaosConfig(2))

	const n = 300
	var docs []string
	for i := 1; i <= n; i++ {
		docs = append(docs, fmt.Sprintf(`{"id":%d,"text":"pin %d"}`, i, i))
	}
	if status, _ := postJSON(t, fts.URL+"/v1/insert", `{"docs":[`+strings.Join(docs, ",")+`]}`); status != http.StatusOK {
		t.Fatalf("seed insert: status %d", status)
	}

	// Leg 1: cut one backend as soon as the stream starts flowing.
	resp, err := http.Get(fts.URL + "/v1/find?q=pin")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var lines []FindResult
	var trailer *FindResult
	cutDone := false
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var fr FindResult
		if err := json.Unmarshal(sc.Bytes(), &fr); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if fr.Err != "" {
			trailer = &fr
			continue
		}
		lines = append(lines, fr)
		if !cutDone {
			proxies[0].CutConns()
			cutDone = true
		}
	}
	resp.Body.Close()
	seen := make(map[uint64]bool, len(lines))
	for _, l := range lines {
		if seen[l.Doc] {
			t.Fatalf("document %d duplicated after mid-stream cut", l.Doc)
		}
		seen[l.Doc] = true
	}
	if trailer == nil && len(lines) != n {
		t.Fatalf("silent partial: %d/%d lines and no error trailer", len(lines), n)
	}
	if trailer != nil && !trailer.Partial {
		t.Fatalf("error trailer not marked partial: %+v", trailer)
	}

	// Leg 2: black-hole one replica before the stream starts. Nothing has
	// been emitted for its rows, so the stall watchdog fires and the rows
	// retry onto the sibling replica: complete results, no trailer.
	proxies[0].SetMode(faultnet.Blackhole)
	proxies[0].CutConns()
	start := time.Now()
	lines2, trailer2, _ := findLines(t, fts.URL+"/v1/find?q=pin")
	if trailer2 != nil {
		t.Fatalf("black-holed replica leaked a partial stream: %s", trailer2.Err)
	}
	if len(lines2) != n {
		t.Fatalf("got %d/%d lines with a black-holed replica", len(lines2), n)
	}
	if elapsed := time.Since(start); elapsed < 400*time.Millisecond {
		t.Logf("note: stream completed in %v (primary pick may have avoided the black hole)", elapsed)
	}
}

// TestChaosLatencyHedge: with one replica answering slowly, the hedged
// read path must race a duplicate to the sibling and win — the
// tail-latency cut, observable in the hedge counters.
func TestChaosLatencyHedge(t *testing.T) {
	cfg := chaosConfig(2)
	cfg.HedgeDelay = 50 * time.Millisecond
	fts, fe, _, proxies := newChaosCluster(t, 2, cfg)

	var docs []string
	for i := 1; i <= 50; i++ {
		docs = append(docs, fmt.Sprintf(`{"id":%d,"text":"slowpoke %d"}`, i, i))
	}
	if status, _ := postJSON(t, fts.URL+"/v1/insert", `{"docs":[`+strings.Join(docs, ",")+`]}`); status != http.StatusOK {
		t.Fatalf("seed insert: status %d", status)
	}

	// Every NEW connection to backend 0 stalls 300ms per direction —
	// far past the 50ms hedge delay. Cut the warm pool so the next count
	// must dial fresh.
	proxies[0].SetLatency(300 * time.Millisecond)
	proxies[0].CutConns()

	for i := 0; i < 3 && fe.Metrics().Counter("hedge_wins") == 0; i++ {
		var out CountResponse
		if code := getJSON(t, fts.URL+"/v1/count?q=slowpoke", &out); code != http.StatusOK {
			t.Fatalf("count under latency: status %d", code)
		}
		if out.Count != 50 {
			t.Fatalf("count under latency = %d, want 50 (hedging must not change answers)", out.Count)
		}
		proxies[0].CutConns() // force fresh (slow) connections again
	}
	if fe.Metrics().Counter("hedges") == 0 {
		t.Error("no hedge was ever launched against a slow replica")
	}
	if fe.Metrics().Counter("hedge_wins") == 0 {
		t.Error("no hedge ever won against a 300ms latency spike")
	}
}

// TestChaosPartialMode: with R=1 (no replica to hide behind) and one
// backend dead, the default read path must refuse (502) rather than
// serve a silently wrong answer, and ?partial=true must serve the
// explicit degraded answer.
func TestChaosPartialMode(t *testing.T) {
	fts, _, backends, proxies := newChaosCluster(t, 2, chaosConfig(1))

	var docs []string
	for i := 1; i <= 60; i++ {
		docs = append(docs, fmt.Sprintf(`{"id":%d,"text":"part %d"}`, i, i))
	}
	if status, _ := postJSON(t, fts.URL+"/v1/insert", `{"docs":[`+strings.Join(docs, ",")+`]}`); status != http.StatusOK {
		t.Fatalf("seed insert: status %d", status)
	}
	survivors := backends[1].DocCountAll()
	if survivors == 0 || survivors == 60 {
		t.Fatalf("placement degenerate: backend 1 holds %d/60 docs", survivors)
	}

	kill(proxies[0])

	// Default: refuse. A partial count is indistinguishable from a
	// correct one, so it must not be served silently.
	var out CountResponse
	if code := getJSON(t, fts.URL+"/v1/count?q=part", &out); code != http.StatusBadGateway {
		t.Fatalf("count with a dead row: status %d, want 502", code)
	}

	// Opt-in: the degraded answer, explicitly labeled.
	if code := getJSON(t, fts.URL+"/v1/count?q=part&partial=true", &out); code != http.StatusOK {
		t.Fatalf("partial count: status %d", code)
	}
	if !out.Partial || len(out.Failed) == 0 {
		t.Fatalf("partial count not labeled: %+v", out)
	}
	if out.Count != survivors {
		t.Errorf("partial count = %d, want the %d surviving docs", out.Count, survivors)
	}

	// Streams: default find with results still flowing ends in an
	// explicit partial trailer; with ?partial=true the same holds with a
	// guaranteed 200.
	lines, trailer, _ := findLines(t, fts.URL+"/v1/find?q=part&partial=true")
	if len(lines) != survivors {
		t.Errorf("partial find streamed %d lines, want %d", len(lines), survivors)
	}
	if trailer == nil || !trailer.Partial {
		t.Fatalf("partial find missing its explicit trailer (lines=%d)", len(lines))
	}

	// Ranked search: default fails whole (a top-k missing a row is
	// silently wrong); partial serves the live rows plus trailer.
	resp, err := http.Get(fts.URL + "/v1/search?q=part&ranked=1&k=10")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("ranked search with dead row: status %d, want 502", resp.StatusCode)
	}
	resp, err = http.Get(fts.URL + "/v1/search?q=part&ranked=1&k=10&partial=true")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial ranked search: status %d", resp.StatusCode)
	}
	scp := bufio.NewScanner(resp.Body)
	got, partialTrailer := 0, false
	for scp.Scan() {
		if len(strings.TrimSpace(scp.Text())) == 0 {
			continue
		}
		var sr SearchResult
		if err := json.Unmarshal(scp.Bytes(), &sr); err != nil {
			t.Fatalf("bad search line: %v", err)
		}
		if sr.Err != "" {
			partialTrailer = sr.Partial
			continue
		}
		got++
	}
	if got == 0 || !partialTrailer {
		t.Fatalf("partial ranked search: %d results, explicit trailer=%v", got, partialTrailer)
	}
}

// TestChaosInsertAckSafety is the socket-level ack-safety proof: under
// an identical ambiguous fault (request sent, no reply — a black hole),
// the non-idempotent insert is attempted exactly once while the
// idempotent count retries. The classification is not theoretical; it
// is visible in the proxy's accept counter.
func TestChaosInsertAckSafety(t *testing.T) {
	cfg := chaosConfig(1)
	cfg.OpTimeout = 200 * time.Millisecond
	fts, _, _, proxies := newChaosCluster(t, 1, cfg)

	proxies[0].SetMode(faultnet.Blackhole)

	status, _ := postJSON(t, fts.URL+"/v1/insert", `{"docs":[{"id":1,"text":"ambiguous"}]}`)
	if status != http.StatusBadGateway {
		t.Fatalf("insert into black hole: status %d, want 502", status)
	}
	afterInsert := proxies[0].Accepted()
	if afterInsert != 1 {
		t.Fatalf("insert attempted %d connections, want exactly 1: an ambiguous failure must never be resent", afterInsert)
	}

	var out CountResponse
	if code := getJSON(t, fts.URL+"/v1/count?q=x", &out); code != http.StatusBadGateway {
		t.Fatalf("count into black hole: status %d, want 502", code)
	}
	if countConns := proxies[0].Accepted() - afterInsert; countConns < 2 {
		t.Fatalf("idempotent count attempted %d connections, want ≥ 2 (it is safe to retry)", countConns)
	}
}
