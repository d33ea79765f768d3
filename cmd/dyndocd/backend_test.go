package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"dyncoll"
	"dyncoll/internal/server"
)

// TestRowsSurviveRestart writes to two assignment rows and the default
// collection of a persistent backend, drains it, rebuilds it from the
// same files and requires every count and extract to come back. A row
// first written after the restart must persist beside the others.
func TestRowsSurviveRestart(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func(dir string) backendConfig
		row  func(dir string, rng int) string // where row rng lives on disk
	}{
		{"snapshot", func(dir string) backendConfig {
			return backendConfig{snapshot: filepath.Join(dir, "b.snap")}
		}, func(dir string, rng int) string { return filepath.Join(dir, fmt.Sprintf("b.snap.range%d", rng)) }},
		{"snapshot-mmap", func(dir string) backendConfig {
			return backendConfig{snapshot: filepath.Join(dir, "b.snap"), mapped: true}
		}, func(dir string, rng int) string { return filepath.Join(dir, fmt.Sprintf("b.snap.range%d", rng)) }},
		{"wal", func(dir string) backendConfig {
			return backendConfig{wal: filepath.Join(dir, "wal")}
		}, func(dir string, rng int) string { return filepath.Join(dir, "wal", fmt.Sprintf("range-%d", rng)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := tc.cfg(dir)
			cfg.index, cfg.sample, cfg.shards = dyncoll.IndexFM4, 16, 2

			// Rows "" (the default collection), 0 and 1, five documents each.
			docs := map[string]map[uint64]string{}
			for k, rng := range []string{"", "0", "1"} {
				docs[rng] = map[uint64]string{}
				for i := 1; i <= 5; i++ {
					docs[rng][uint64(100*k+i)] = fmt.Sprintf("row %q document %d holds a needle", rng, i)
				}
			}

			url, drain := serveBackend(t, cfg)
			for rng, d := range docs {
				insert(t, url, rng, d)
			}
			checkRows(t, url, docs)
			drain()

			url, drain = serveBackend(t, cfg)
			checkRows(t, url, docs)
			docs["2"] = map[uint64]string{301: "row 2 is written after the restart, with a needle"}
			insert(t, url, "2", docs["2"])
			checkRows(t, url, docs)
			drain()
			for _, rng := range []int{0, 1, 2} {
				if _, err := os.Stat(tc.row(dir, rng)); err != nil {
					t.Fatalf("row %d not on disk: %v", rng, err)
				}
			}

			url, drain = serveBackend(t, cfg)
			checkRows(t, url, docs)
			drain()
		})
	}
}

// serveBackend builds the backend cfg describes and serves it until the
// returned drain, which stops the server first.
func serveBackend(t *testing.T, cfg backendConfig) (string, func()) {
	t.Helper()
	b, drain, err := buildBackend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(b.Handler())
	return srv.URL, func() { srv.Close(); drain() }
}

// rangeQuery is the ?range= parameter naming row rng, "" for none.
func rangeQuery(rng string) string {
	if rng == "" {
		return ""
	}
	return "&range=" + rng
}

func insert(t *testing.T, url, rng string, docs map[uint64]string) {
	t.Helper()
	var req server.InsertRequest
	for id, text := range docs {
		req.Docs = append(req.Docs, server.DocJSON{ID: id, Text: text})
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/insert?"+rangeQuery(rng), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert into row %q: status %d", rng, resp.StatusCode)
	}
}

// checkRows requires each row's needle count to be its document count,
// the default query to count them all, and every document to extract
// whole from its row.
func checkRows(t *testing.T, url string, docs map[string]map[uint64]string) {
	t.Helper()
	total := 0
	for rng, d := range docs {
		total += len(d)
		if rng == "" {
			continue // an unranged count covers every row
		}
		var c server.CountResponse
		get(t, url+"/v1/count?q=needle"+rangeQuery(rng), &c)
		if c.Count != len(d) {
			t.Errorf("row %s: count %d, want %d", rng, c.Count, len(d))
		}
	}
	var c server.CountResponse
	get(t, url+"/v1/count?q=needle", &c)
	if c.Count != total {
		t.Errorf("all rows: count %d, want %d", c.Count, total)
	}
	for rng, d := range docs {
		for id, text := range d {
			var x server.ExtractResponse
			get(t, fmt.Sprintf("%s/v1/extract?id=%d&off=0&len=%d%s", url, id, len(text), rangeQuery(rng)), &x)
			if string(x.Data) != text {
				t.Errorf("row %q doc %d: extract %q, want %q", rng, id, x.Data, text)
			}
		}
	}
}

func get(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET %s: status %d", url, resp.StatusCode)
		return
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
