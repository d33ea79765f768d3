package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"dyncoll"
	"dyncoll/internal/server"
)

// target is the system as one client calls it: a library handle or a
// frontend URL. An error means the op failed.
type target interface {
	Count(p []byte) (int, error)
	Find(p []byte, limit int) ([]dyncoll.Occurrence, error)
	Extract(id uint64, off, n int) ([]byte, error)
	Search(plan dyncoll.SearchPlan) ([]dyncoll.Match, error)
	Insert(docs []dyncoll.Document) error
	Delete(ids []uint64) (int, error)
}

// collTarget calls the library. server.Coll is the one interface both
// the plain (via server.PlainColl) and the durable collection satisfy.
type collTarget struct{ c server.Coll }

func (t collTarget) Count(p []byte) (int, error) { return t.c.Count(p), nil }
func (t collTarget) Find(p []byte, limit int) ([]dyncoll.Occurrence, error) {
	return t.c.FindLimit(p, limit), nil
}
func (t collTarget) Extract(id uint64, off, n int) ([]byte, error) {
	data, ok := t.c.Extract(id, off, n)
	if !ok {
		return nil, fmt.Errorf("extract: document %d not found", id)
	}
	return data, nil
}
func (t collTarget) Search(plan dyncoll.SearchPlan) ([]dyncoll.Match, error) {
	var out []dyncoll.Match
	err := t.c.Search(plan, func(m dyncoll.Match) bool {
		out = append(out, m)
		return true
	})
	return out, err
}
func (t collTarget) Insert(docs []dyncoll.Document) error { return t.c.InsertBatch(docs) }
func (t collTarget) Delete(ids []uint64) (int, error)     { return t.c.DeleteBatch(ids) }

// httpTarget calls a dyndocd endpoint (a frontend, or one backend row
// for the server probes) over its own keep-alive connection pool.
type httpTarget struct {
	base  string // http://host:port
	query string // "" or "&range=N"
	hc    *http.Client
}

func newHTTPTarget(base string) *httpTarget {
	return &httpTarget{base: base, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
}

// get issues a GET and hands the 200 body to read.
func (t *httpTarget) get(path string, read func(io.Reader) error) error {
	resp, err := t.hc.Get(t.base + path + t.query)
	if err != nil {
		return err
	}
	return readReply(resp, read)
}

func (t *httpTarget) post(path string, body any, read func(io.Reader) error) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	if t.query != "" {
		path += "?" + t.query[1:]
	}
	resp, err := t.hc.Post(t.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	return readReply(resp, read)
}

// readReply consumes the whole body so the connection is reused; any
// status but 200 is a refused request.
func readReply(resp *http.Response, read func(io.Reader) error) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: status %d: %s", resp.Request.URL.Path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := read(resp.Body); err != nil {
		return err
	}
	_, err := io.Copy(io.Discard, resp.Body)
	return err
}

func decodeInto(v any) func(io.Reader) error {
	return func(r io.Reader) error { return json.NewDecoder(r).Decode(v) }
}

func (t *httpTarget) Count(p []byte) (int, error) {
	var out server.CountResponse
	err := t.get("/v1/count?q="+url.QueryEscape(string(p)), decodeInto(&out))
	if err == nil && out.Partial {
		err = fmt.Errorf("count: partial answer: %v", out.Failed)
	}
	return out.Count, err
}

// lines decodes an NDJSON stream, one value of type T per line.
func lines[T any](r io.Reader, each func(T) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var v T
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			return err
		}
		if err := each(v); err != nil {
			return err
		}
	}
	return sc.Err()
}

func (t *httpTarget) Find(p []byte, limit int) ([]dyncoll.Occurrence, error) {
	var out []dyncoll.Occurrence
	err := t.get("/v1/find?q="+url.QueryEscape(string(p))+"&limit="+strconv.Itoa(limit), func(r io.Reader) error {
		return lines(r, func(l server.FindResult) error {
			if l.Err != "" {
				return fmt.Errorf("find: in-band error: %s", l.Err)
			}
			out = append(out, dyncoll.Occurrence{DocID: l.Doc, Off: l.Off})
			return nil
		})
	})
	return out, err
}

func (t *httpTarget) Extract(id uint64, off, n int) ([]byte, error) {
	var out server.ExtractResponse
	err := t.get(fmt.Sprintf("/v1/extract?id=%d&off=%d&len=%d", id, off, n), decodeInto(&out))
	return out.Data, err
}

func (t *httpTarget) Search(plan dyncoll.SearchPlan) ([]dyncoll.Match, error) {
	var out []dyncoll.Match
	err := t.post("/v1/search", plan, func(r io.Reader) error {
		return lines(r, func(l server.SearchResult) error {
			if l.Err != "" {
				return fmt.Errorf("search: in-band error: %s", l.Err)
			}
			out = append(out, dyncoll.Match{Doc: l.Doc, Off: l.Off, Len: l.Len, Score: l.Score})
			return nil
		})
	})
	return out, err
}

func (t *httpTarget) Insert(docs []dyncoll.Document) error {
	req := server.InsertRequest{Docs: make([]server.DocJSON, len(docs))}
	for i, d := range docs {
		req.Docs[i] = server.DocJSON{ID: d.ID, Data: d.Data}
	}
	var out server.InsertResponse
	if err := t.post("/v1/insert", req, decodeInto(&out)); err != nil {
		return err
	}
	if out.Inserted != len(docs) {
		return fmt.Errorf("insert: %d of %d documents acknowledged", out.Inserted, len(docs))
	}
	return nil
}

func (t *httpTarget) Delete(ids []uint64) (int, error) {
	var out server.DeleteResponse
	err := t.post("/v1/delete", server.DeleteRequest{IDs: ids}, decodeInto(&out))
	return out.Deleted, err
}

// execute runs one op against t and returns the time spent inside the
// call and the answer. Only the call is timed; building the request's
// plan and copying nothing else happen inside the window.
func execute(t target, o *op) (ns int64, a answer) {
	switch o.class {
	case opCount:
		t0 := now()
		a.n, a.err = t.Count(o.pattern)
		ns = now() - t0
	case opFind:
		t0 := now()
		a.occs, a.err = t.Find(o.pattern, findLimit)
		ns = now() - t0
	case opExtract:
		t0 := now()
		a.data, a.err = t.Extract(o.id, o.off, extractLen)
		ns = now() - t0
	case opSearch:
		re := dyncoll.SearchPlan{Pattern: o.regex(), Regex: true}
		rk := dyncoll.SearchPlan{PatternB: o.pattern[:searchLit], Ranked: true, K: topK}
		t0 := now()
		a.regex, a.err = t.Search(re)
		if a.err == nil {
			a.ranked, a.err = t.Search(rk)
		}
		ns = now() - t0
	case opInsert:
		t0 := now()
		a.err = t.Insert(o.docs)
		ns = now() - t0
	case opDelete:
		t0 := now()
		a.n, a.err = t.Delete(o.ids)
		ns = now() - t0
		if a.err == nil && a.n != len(o.ids) {
			a.err = fmt.Errorf("delete: removed %d of %d live documents", a.n, len(o.ids))
		}
	}
	return ns, a
}
