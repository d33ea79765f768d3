package server

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strings"
	"testing"
)

// TestFrontendFindAllocBytes gates the bytes one frontend find of 20
// lines allocates — client, frontend and both backends of an R=1 table
// together, all in this process — so a per-stream buffer sized
// for the worst line, not the typical one, cannot come back: with a
// 64 KiB scanner buffer per backend stream a find allocated about
// 185 KB here, with the scanner's own 4 KiB start about 62 KB.
func TestFrontendFindAllocBytes(t *testing.T) {
	fts, _, _ := newRangedCluster(t, 2, 1)
	var docs []string
	for id := 1; id <= 20; id++ {
		docs = append(docs, fmt.Sprintf(`{"id":%d,"text":"alloc gate document %d with one needle"}`, id, id))
	}
	if status, _ := postJSON(t, fts.URL+"/v1/insert", `{"docs":[`+strings.Join(docs, ",")+`]}`); status != http.StatusOK {
		t.Fatalf("insert: status %d", status)
	}
	client := &http.Client{}
	find := func() {
		resp, err := client.Get(fts.URL + "/v1/find?q=needle")
		if err != nil {
			t.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || n == 0 {
			t.Fatalf("find: status %d, %d bytes", resp.StatusCode, n)
		}
	}
	for range 20 { // warm the connection pools
		find()
	}
	// TotalAlloc is the process's: a goroutine an earlier test left
	// behind can only add to it, so the least of three batches counts.
	const finds = 200
	per := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for range finds {
			find()
		}
		runtime.ReadMemStats(&after)
		per = min(per, (after.TotalAlloc-before.TotalAlloc)/finds)
	}
	t.Logf("%d bytes allocated per find", per)
	if per > 96<<10 {
		t.Errorf("a find allocated %d bytes, want at most %d", per, 96<<10)
	}
}
