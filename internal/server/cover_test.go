package server

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"dyncoll"
)

// coverCorpus is the gate's corpus: every document holds "needle" once
// and "ab" a varying number of times, and the IDs spread over every
// assignment row of the tables the gate builds.
func coverCorpus() []dyncoll.Document {
	var docs []dyncoll.Document
	for id := uint64(1); id <= 60; id++ {
		text := fmt.Sprintf("doc %d needle %s end", id, strings.Repeat("ab", int(id%5)))
		docs = append(docs, dyncoll.Document{ID: id, Data: []byte(text)})
	}
	return docs
}

// coverRead is one fleet read the gate issues: the backend endpoint it
// lands on, the client URL, and the reference answer as the lines the
// reply must carry — sorted when the order is unspecified.
type coverRead struct {
	op, path string
	want     []string
	sorted   bool
}

// coverReads derives every read's expected reply from a reference
// collection holding the corpus.
func coverReads(t *testing.T, docs []dyncoll.Document) []coverRead {
	t.Helper()
	ref, err := dyncoll.NewCollection(dyncoll.WithSyncRebuilds())
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.InsertBatch(docs); err != nil {
		t.Fatal(err)
	}
	search := func(plan dyncoll.SearchPlan, line func(dyncoll.Match) string) []string {
		var out []string
		if err := ref.Search(plan, func(m dyncoll.Match) bool {
			out = append(out, line(m))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	count := func(q string) []string { return []string{fmt.Sprintf(`{"count":%d}`, ref.Count([]byte(q)))} }
	found := func(m dyncoll.Match) string { return fmt.Sprintf(`{"doc":%d,"off":%d}`, m.Doc, m.Off) }
	streamed := func(m dyncoll.Match) string { return fmt.Sprintf(`{"doc":%d,"off":%d,"len":%d}`, m.Doc, m.Off, m.Len) }
	ranked := func(m dyncoll.Match) string {
		line, err := json.Marshal(SearchResult{Doc: m.Doc, Off: m.Off, Len: m.Len, Score: m.Score})
		if err != nil {
			t.Fatal(err)
		}
		return string(line)
	}
	sortLines := func(l []string) []string { slices.Sort(l); return l }
	return []coverRead{
		{"count", "/v1/count?q=needle", count("needle"), false},
		{"count", "/v1/count?q=ab", count("ab"), false},
		{"find", "/v1/find?q=ab", sortLines(search(dyncoll.SearchPlan{Pattern: "ab"}, found)), true},
		{"search", "/v1/search?q=ab&ranked=1&k=7", search(dyncoll.SearchPlan{Pattern: "ab", Ranked: true, K: 7}, ranked), false},
		{"search", "/v1/search?q=ne%2Bdle&regex=1", sortLines(search(dyncoll.SearchPlan{Pattern: "ne+dle", Regex: true}, streamed)), true},
	}
}

// check issues the read against base and compares the reply's lines
// with the reference.
func (rd coverRead) check(t *testing.T, base string) {
	t.Helper()
	got := wireDo(t, base+rd.path, "")
	lines := strings.Split(strings.TrimSuffix(got.body, "\n"), "\n")
	if rd.sorted {
		slices.Sort(lines)
	}
	if got.status != http.StatusOK || !slices.Equal(lines, rd.want) {
		t.Errorf("%s: status %d, %d lines %.200q; want 200 and %d lines %.200q",
			rd.path, got.status, len(lines), lines, len(rd.want), rd.want)
	}
}

// coverFleets are the tables the gate covers, the backend requests one
// healthy fleet read sends under each, and the backend insert and
// delete requests the corpus insert and a delete touching every row
// send — today one per row per replica.
var coverFleets = []struct {
	name             string
	n, r             int
	requests         int64
	inserts, deletes int64
}{
	{"NewAssignment(2,1)", 2, 1, 2, 2, 2},
	{"NewAssignment(2,2)", 2, 2, 1, 4, 4},
	{"NewAssignment(3,2)", 3, 2, 2, 6, 6},
	{"NewAssignment(4,2)", 4, 2, 2, 8, 8},
}

// insertCorpus writes docs through the frontend at base.
func insertCorpus(t *testing.T, base string, docs []dyncoll.Document) {
	t.Helper()
	parts := make([]string, len(docs))
	for i, d := range docs {
		parts[i] = fmt.Sprintf(`{"id":%d,"text":%q}`, d.ID, d.Data)
	}
	if status, _ := postJSON(t, base+"/v1/insert", `{"docs":[`+strings.Join(parts, ",")+`]}`); status != http.StatusOK {
		t.Fatalf("insert: status %d", status)
	}
}

// TestCoverRequests is the cover gate: a healthy fleet read — count,
// find, ranked and streaming search — sends exactly one backend request
// per group of its cover, counted by the backends' own request metrics,
// and answers what a reference collection holding the same documents
// answers. Hedging is off so that no duplicate read is ever sent. It
// also pins what a fleet write sends today — the corpus insert and one
// delete of a document from every row — and where it lands: in its
// row's collection on every replica of the row, never in a backend's
// default collection.
func TestCoverRequests(t *testing.T) {
	docs := coverCorpus()
	reads := coverReads(t, docs)
	for _, fl := range coverFleets {
		t.Run(fl.name, func(t *testing.T) {
			fts, fe, backends, _ := newChaosCluster(t, fl.n, chaosConfig(fl.r))
			sent := func(op string) (n int64) {
				for _, b := range backends {
					n += b.Metrics().Requests(op)
				}
				return n
			}
			insertCorpus(t, fts.URL, docs)
			if got := sent("insert"); got != fl.inserts {
				t.Errorf("corpus insert sent %d backend requests, want %d", got, fl.inserts)
			}
			for i, b := range backends {
				if n := b.Collection().DocCount(); n != 0 {
					t.Errorf("backend %d's default collection holds %d documents, want 0", i, n)
				}
			}
			asg := fe.Assignment()
			for _, d := range docs {
				row := asg.RowOf(d.ID)
				for _, b := range asg.Replicas(row) {
					if c := backends[b].Ranges()[row]; c == nil || !c.Has(d.ID) {
						t.Errorf("document %d is not in row %d on its replica, backend %d", d.ID, row, b)
					}
				}
			}
			for _, rd := range reads {
				before := sent(rd.op)
				rd.check(t, fts.URL)
				if got := sent(rd.op) - before; got != fl.requests {
					t.Errorf("%s sent %d backend requests, want %d", rd.path, got, fl.requests)
				}
			}
			rows := map[int]uint64{} // a document of every row
			for _, d := range docs {
				rows[asg.RowOf(d.ID)] = d.ID
			}
			deleteDocs(t, fts.URL, slices.Collect(maps.Values(rows)))
			if got := sent("delete"); got != fl.deletes {
				t.Errorf("a delete from %d rows sent %d backend requests, want %d", len(rows), got, fl.deletes)
			}
		})
	}
}

// TestCoverKilledReplica: with one backend's proxy killed under R=2,
// the rows it served re-cover over their surviving replicas — a group
// may split — and every row is still answered exactly once.
func TestCoverKilledReplica(t *testing.T) {
	docs := coverCorpus()
	for _, fl := range coverFleets[1:] {
		t.Run(fl.name, func(t *testing.T) {
			fts, _, _, proxies := newChaosCluster(t, fl.n, chaosConfig(fl.r))
			insertCorpus(t, fts.URL, docs)
			kill(proxies[0])
			for i := 0; i < 3; i++ {
				var out CountResponse
				if code := getJSON(t, fts.URL+"/v1/count?q=needle", &out); code != http.StatusOK || out.Count != len(docs) || out.Partial {
					t.Fatalf("count #%d with backend 0 dead: status %d %+v, want %d", i, code, out, len(docs))
				}
				lines, trailer, status := findLines(t, fts.URL+"/v1/find?q=needle")
				if status != http.StatusOK || trailer != nil || len(lines) != len(docs) {
					t.Fatalf("find #%d with backend 0 dead: status %d trailer %v, %d lines, want %d", i, status, trailer, len(lines), len(docs))
				}
				seen := make(map[uint64]bool, len(lines))
				for _, l := range lines {
					if seen[l.Doc] {
						t.Fatalf("find #%d streamed document %d twice", i, l.Doc)
					}
					seen[l.Doc] = true
				}
			}
		})
	}
}

// TestCoverHedgeSplits: under NewAssignment(3,2) the cover sends rows
// {0,2} to backend 0 together; with backend 0 slow, the hedge re-covers
// them over replicas not yet tried — row 0 on backend 1, row 2 on
// backend 2 — and the two hedge requests together win with the exact
// answer, each row counted once.
func TestCoverHedgeSplits(t *testing.T) {
	cfg := chaosConfig(2)
	cfg.HedgeDelay = 50 * time.Millisecond
	fts, fe, _, proxies := newChaosCluster(t, 3, cfg)
	docs := coverCorpus()
	insertCorpus(t, fts.URL, docs)
	proxies[0].SetLatency(300 * time.Millisecond)
	proxies[0].CutConns()
	for i := 0; i < 3 && fe.Metrics().Counter("hedge_wins") == 0; i++ {
		before := fe.Metrics().Counter("hedges")
		var out CountResponse
		if code := getJSON(t, fts.URL+"/v1/count?q=needle", &out); code != http.StatusOK || out.Count != len(docs) {
			t.Fatalf("count with backend 0 slow: status %d count %d, want %d", code, out.Count, len(docs))
		}
		// Backend 0's group cannot be hedged on one backend: no other
		// backend hosts both row 0 and row 2.
		if sent := fe.Metrics().Counter("hedges") - before; sent < 2 {
			t.Fatalf("count #%d sent %d hedge requests, want the split of rows 0 and 2 over two backends", i, sent)
		}
		proxies[0].CutConns() // force fresh (slow) connections again
	}
	if fe.Metrics().Counter("hedge_wins") == 0 {
		t.Error("no hedge won against a 300ms latency spike")
	}
}

// TestCoverExtractSameReplica: an extract reads its row from the
// backend every other read covers that row with — under
// NewAssignment(4,2) rows 0 and 3 from backend 0, rows 1 and 2 from
// backend 2 — so after half-applied writes an extract cannot disagree
// with the find that listed the document.
func TestCoverExtractSameReplica(t *testing.T) {
	fts, fe, backends, _ := newChaosCluster(t, 4, chaosConfig(2))
	docs := coverCorpus()
	insertCorpus(t, fts.URL, docs)
	serving := map[int]int{0: 0, 3: 0, 1: 2, 2: 2}
	for _, d := range docs {
		want := serving[fe.Assignment().RowOf(d.ID)]
		before := backends[want].Metrics().Requests("extract")
		var ex ExtractResponse
		url := fmt.Sprintf("%s/v1/extract?id=%d&off=0&len=3", fts.URL, d.ID)
		if code := getJSON(t, url, &ex); code != http.StatusOK || string(ex.Data) != "doc" {
			t.Fatalf("extract %d: status %d data %q", d.ID, code, ex.Data)
		}
		if backends[want].Metrics().Requests("extract") != before+1 {
			t.Errorf("extract of document %d (row %d) was not served by backend %d", d.ID, fe.Assignment().RowOf(d.ID), want)
		}
	}
}
