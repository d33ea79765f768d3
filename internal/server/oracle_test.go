package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"testing"

	"dyncoll/internal/oracle"
)

// fleetReader asks a fleet's frontend the oracle's document questions
// over HTTP.
type fleetReader struct {
	t    *testing.T
	base string
}

func (f fleetReader) Count(p []byte) int {
	var out CountResponse
	if code := getJSON(f.t, f.base+"/v1/count?q="+url.QueryEscape(string(p)), &out); code != http.StatusOK || out.Partial {
		f.t.Fatalf("count %q: status %d %+v", p, code, out)
	}
	return out.Count
}

func (f fleetReader) Find(p []byte) []oracle.Occ {
	lines, trailer, code := findLines(f.t, f.base+"/v1/find?q="+url.QueryEscape(string(p)))
	if code != http.StatusOK || trailer != nil {
		f.t.Fatalf("find %q: status %d, trailer %+v", p, code, trailer)
	}
	occs := make([]oracle.Occ, len(lines))
	for i, l := range lines {
		occs[i] = oracle.Occ{DocID: l.Doc, Off: l.Off}
	}
	return occs
}

// Extract sends a negative offset as 0, as the library clamps it: the
// wire takes none.
func (f fleetReader) Extract(id uint64, off, length int) ([]byte, bool) {
	var out ExtractResponse
	code := getJSON(f.t, fmt.Sprintf("%s/v1/extract?id=%d&off=%d&len=%d", f.base, id, max(off, 0), length), &out)
	return out.Data, code == http.StatusOK
}

func (f fleetReader) Has(id uint64) bool {
	_, ok := f.Extract(id, 0, 0)
	return ok
}

// deleteDocs deletes ids through the frontend at base.
func deleteDocs(t *testing.T, base string, ids []uint64) {
	t.Helper()
	body, err := json.Marshal(DeleteRequest{IDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	if status, _ := postJSON(t, base+"/v1/delete", string(body)); status != http.StatusOK {
		t.Fatalf("delete %v: status %d", ids, status)
	}
}

// applyFleet writes ops through the frontend at base and into m.
func applyFleet(t *testing.T, base string, m *oracle.Model, ops []oracle.DocOp) {
	t.Helper()
	for _, op := range ops {
		m.Apply(op)
		if len(op.Insert) > 0 {
			insertCorpus(t, base, op.Insert)
		} else {
			deleteDocs(t, base, op.Delete)
		}
	}
}

// TestOracleFleet is the oracle matrix's fleet leg: the document stream
// written through the frontend of NewAssignment(2,1) and of
// NewAssignment(3,2), whose count, find, extract and presence answers
// must be the scanning model's after the stream, after the stream's
// last quarter, and — under R=2 — with one replica's proxy killed.
func TestOracleFleet(t *testing.T) {
	ops := oracle.DocStream(1, 40, 16)
	pre, post := ops[:len(ops)*3/4], ops[len(ops)*3/4:]
	for _, fl := range []struct {
		name string
		n, r int
	}{{"NewAssignment(2,1)", 2, 1}, {"NewAssignment(3,2)", 3, 2}} {
		t.Run(fl.name, func(t *testing.T) {
			fts, _, _, proxies := newChaosCluster(t, fl.n, chaosConfig(fl.r))
			var m oracle.Model
			check := func(when string) {
				t.Helper()
				if err := oracle.CheckDocs[oracle.Occ](&m, fleetReader{t, fts.URL}); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
			}
			applyFleet(t, fts.URL, &m, pre)
			check("stream")
			applyFleet(t, fts.URL, &m, post)
			check("mutated")
			if fl.r > 1 {
				kill(proxies[0])
				check("one replica killed")
			}
		})
	}
}
