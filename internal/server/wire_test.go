package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"dyncoll"
)

// newRangedCluster starts n range-hosting backends and a frontend that
// replicates every assignment row on r of them, returning the
// frontend's test server plus the backends and their test servers.
func newRangedCluster(t *testing.T, n, r int) (*httptest.Server, []*Backend, []*httptest.Server) {
	t.Helper()
	factory := func(int) (Coll, error) {
		c, err := dyncoll.NewCollection(
			dyncoll.WithShards(2),
			dyncoll.WithSyncRebuilds(),
			dyncoll.WithMinCapacity(16),
		)
		return PlainColl{c}, err
	}
	var backends []*Backend
	var servers []*httptest.Server
	var addrs []string
	for i := 0; i < n; i++ {
		def, err := factory(-1)
		if err != nil {
			t.Fatal(err)
		}
		b := NewBackend(def).EnableRanges(factory)
		ts := httptest.NewServer(b.Handler())
		t.Cleanup(ts.Close)
		backends = append(backends, b)
		servers = append(servers, ts)
		addrs = append(addrs, ts.URL)
	}
	fe, err := NewFrontendConfig(FrontendConfig{Backends: addrs, Replication: r})
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(fe.Handler())
	t.Cleanup(fts.Close)
	return fts, backends, servers
}

// wireReply is one HTTP reply as a client receives it.
type wireReply struct {
	status int
	ctype  string
	body   string
}

// wireDo sends one request (a POST when body is non-empty) and reads
// the whole reply.
func wireDo(t *testing.T, url, body string) wireReply {
	t.Helper()
	var resp *http.Response
	var err error
	if body == "" {
		resp, err = http.Get(url)
	} else {
		resp, err = http.Post(url, "application/json", strings.NewReader(body))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return wireReply{resp.StatusCode, resp.Header.Get("Content-Type"), string(raw)}
}

// sortedLines returns an NDJSON body's lines in sorted order.
func sortedLines(body string) []string {
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	slices.Sort(lines)
	return lines
}

// TestWireShape pins the exact bytes a client receives from a backend
// alone, from a frontend over an R=1 table and from a frontend over an
// R=2 table: all three answer one corpus identically. Streamed
// lines compare as sorted sets, because the order in which shards and
// rows interleave varies.
func TestWireShape(t *testing.T) {
	const (
		ndjson = "application/x-ndjson"
		plain  = "application/json"
	)
	corpus := `{"docs":[
		{"id":1,"text":"the needle in the haystack"},
		{"id":2,"text":"needle needle"},
		{"id":3,"text":"no match here"},
		{"id":4,"text":"a haystack with one needle at its end"}]}`
	rankedTop2 := `{"doc":2,"off":0,"len":6,"score":0.585840421570988}` + "\n" +
		`{"doc":1,"off":4,"len":6,"score":0.49900142093454203}` + "\n"
	rankedAll := `{"doc":2,"off":0,"len":6,"score":0.585840421570988}` + "\n" +
		`{"doc":1,"off":4,"len":6,"score":0.49900142093454203}` + "\n" +
		`{"doc":4,"off":20,"len":6,"score":0.45211295864050194}` + "\n"
	found := `{"doc":1,"off":4}` + "\n" + `{"doc":2,"off":0}` + "\n" +
		`{"doc":2,"off":7}` + "\n" + `{"doc":4,"off":20}` + "\n"
	streamed := `{"doc":1,"off":4,"len":6}` + "\n" + `{"doc":2,"off":0,"len":6}` + "\n" +
		`{"doc":2,"off":7,"len":6}` + "\n" + `{"doc":4,"off":20,"len":6}` + "\n"
	cases := []struct {
		path, body string
		want       wireReply
		set        bool // compare the lines as a sorted set
	}{
		{"/v1/insert", corpus, wireReply{200, plain, `{"inserted":4}` + "\n"}, false},
		{"/v1/count?q=needle", "", wireReply{200, plain, `{"count":4}` + "\n"}, false},
		{"/v1/count?q=haystack", "", wireReply{200, plain, `{"count":2}` + "\n"}, false},
		{"/v1/count?q=absent", "", wireReply{200, plain, `{"count":0}` + "\n"}, false},
		{"/v1/extract?id=4&off=2&len=8", "", wireReply{200, plain, `{"id":4,"off":2,"data":"aGF5c3RhY2s="}` + "\n"}, false},
		{"/v1/search?q=needle&ranked=1&k=2", "", wireReply{200, ndjson, rankedTop2}, false},
		{"/v1/search?q=needle&ranked=1", "", wireReply{200, ndjson, rankedAll}, false},
		{"/v1/search", `{"q":"ne+dle","regex":true,"ranked":true,"k":3}`, wireReply{200, ndjson, rankedAll}, false},
		{"/v1/find?q=needle", "", wireReply{200, ndjson, found}, true},
		{"/v1/find?q=needle&limit=9", "", wireReply{200, ndjson, found}, true},
		{"/v1/search?q=needle", "", wireReply{200, ndjson, streamed}, true},
		{"/v1/search?q=ha.st&regex=1", "", wireReply{200, ndjson, `{"doc":1,"off":18,"len":5}` + "\n" + `{"doc":4,"off":2,"len":5}` + "\n"}, true},
		{"/v1/find?q=needle&limit=-1", "", wireReply{400, plain, `{"error":"bad_request","message":"limit must be a non-negative integer"}` + "\n"}, false},
		{"/v1/extract?id=2&off=40&len=3", "", wireReply{200, plain, `{"id":2,"off":40,"data":null}` + "\n"}, false},
		{"/v1/extract?id=99&off=0&len=3", "", wireReply{404, plain, `{"error":"not_found","message":"no document 99 or range [0,3) out of bounds"}` + "\n"}, false},
	}
	setups := []struct {
		name  string
		start func(t *testing.T) string
	}{
		{"backend", func(t *testing.T) string { _, ts := newTestBackend(t); return ts.URL }},
		{"frontend R=1", func(t *testing.T) string { fts, _, _ := newRangedCluster(t, 2, 1); return fts.URL }},
		{"frontend R=2", func(t *testing.T) string { fts, _, _ := newRangedCluster(t, 3, 2); return fts.URL }},
	}
	for _, s := range setups {
		t.Run(s.name, func(t *testing.T) {
			base := s.start(t)
			for _, tc := range cases {
				got := wireDo(t, base+tc.path, tc.body)
				want := tc.want
				if tc.set {
					if slices.Equal(sortedLines(got.body), sortedLines(want.body)) {
						got.body = want.body
					}
				}
				if got != want {
					t.Errorf("%s %s:\n got %d %s %q\nwant %d %s %q", s.name, tc.path, got.status, got.ctype, got.body, want.status, want.ctype, want.body)
				}
			}
		})
	}

	// A backend alone answers a read that names several rows with the
	// union of the single-row replies, and refuses a repeated range where
	// one row is addressed: insert, delete and extract.
	t.Run("backend rows", func(t *testing.T) {
		factory := func(int) (Coll, error) {
			c, err := dyncoll.NewCollection(dyncoll.WithShards(2), dyncoll.WithSyncRebuilds(), dyncoll.WithMinCapacity(16))
			return PlainColl{c}, err
		}
		def, err := factory(-1)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(NewBackend(def).EnableRanges(factory).Handler())
		t.Cleanup(ts.Close)
		wireDo(t, ts.URL+"/v1/insert?range=0", `{"docs":[{"id":1,"text":"the needle in the haystack"},{"id":2,"text":"needle needle"}]}`)
		wireDo(t, ts.URL+"/v1/insert?range=1", `{"docs":[{"id":3,"text":"no match here"},{"id":4,"text":"a haystack with one needle at its end"}]}`)
		counted := func(r wireReply) int {
			var c CountResponse
			if err := json.Unmarshal([]byte(r.body), &c); err != nil {
				t.Fatalf("count body %q: %v", r.body, err)
			}
			return c.Count
		}
		for _, path := range []string{"/v1/count?q=needle", "/v1/count?q=haystack", "/v1/find?q=needle", "/v1/find?q=needle&limit=9",
			"/v1/search?q=needle", "/v1/search?q=ha.st&regex=1", "/v1/search?q=needle&ranked=1"} {
			r0, r1 := wireDo(t, ts.URL+path+"&range=0", ""), wireDo(t, ts.URL+path+"&range=1", "")
			got := wireDo(t, ts.URL+path+"&range=0&range=1", "")
			want := wireReply{200, ndjson, r0.body + r1.body}
			if strings.HasPrefix(path, "/v1/count") {
				want = wireReply{200, plain, fmt.Sprintf(`{"count":%d}`+"\n", counted(r0)+counted(r1))}
			} else if slices.Equal(sortedLines(got.body), sortedLines(want.body)) {
				got.body = want.body
			}
			if got != want {
				t.Errorf("backend %s&range=0&range=1:\n got %d %s %q\nwant %d %s %q", path, got.status, got.ctype, got.body, want.status, want.ctype, want.body)
			}
		}
		if got := wireDo(t, ts.URL+"/v1/search?q=needle&ranked=1&range=0&range=1", ""); got.body != rankedAll {
			t.Errorf("ranked search over rows 0 and 1: %q, want %q", got.body, rankedAll)
		}
		once := wireReply{400, plain, `{"error":"bad_request","message":"range may be given at most once on insert, delete and extract"}` + "\n"}
		for _, tc := range []struct{ path, body string }{
			{"/v1/insert?range=0&range=1", `{"docs":[{"id":9,"text":"x"}]}`},
			{"/v1/delete?range=0&range=1", `{"ids":[1]}`},
			{"/v1/extract?id=1&off=0&len=3&range=0&range=1", ""},
		} {
			if got := wireDo(t, ts.URL+tc.path, tc.body); got != once {
				t.Errorf("backend %s:\n got %d %s %q\nwant %d %s %q", tc.path, got.status, got.ctype, got.body, once.status, once.ctype, once.body)
			}
		}
	})
}
