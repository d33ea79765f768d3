package main

import (
	"bytes"
	"cmp"
	"fmt"
	"regexp"
	"slices"

	"dyncoll"
	"dyncoll/internal/query"
)

// model is the reference the benchmark checks answers against: the live
// documents in a map, queried by scanning. It shares no code with the
// index except the ranking formula, which is part of the query contract.
type model struct {
	docs map[uint64][]byte
	syms int
}

func newModel(docs []dyncoll.Document) *model {
	m := &model{docs: make(map[uint64][]byte, len(docs))}
	for _, d := range docs {
		m.insert(d)
	}
	return m
}

func (m *model) insert(d dyncoll.Document) {
	m.docs[d.ID] = d.Data
	m.syms += len(d.Data)
}

// apply replays one acknowledged write.
func (m *model) apply(o *op) {
	switch o.class {
	case opInsert:
		for _, d := range o.docs {
			m.insert(d)
		}
	case opDelete:
		for _, id := range o.ids {
			if data, ok := m.docs[id]; ok {
				m.syms -= len(data)
				delete(m.docs, id)
			}
		}
	}
}

// offsets appends every (overlapping) occurrence offset of p in text.
func offsets(dst []int, text, p []byte) []int {
	for from := 0; ; {
		i := bytes.Index(text[from:], p)
		if i < 0 {
			return dst
		}
		dst = append(dst, from+i)
		from += i + 1
	}
}

func (m *model) count(p []byte) int {
	n := 0
	var buf []int
	for _, data := range m.docs {
		buf = offsets(buf[:0], data, p)
		n += len(buf)
	}
	return n
}

// regexMatches lists every match of expr, which requires the literal
// lit: only documents containing lit can match, so only they are run
// through the regexp.
func (m *model) regexMatches(expr string, lit []byte) ([]dyncoll.Match, error) {
	re, err := regexp.Compile(expr)
	if err != nil {
		return nil, err
	}
	var out []dyncoll.Match
	for id, data := range m.docs {
		if !bytes.Contains(data, lit) {
			continue
		}
		for _, loc := range re.FindAllIndex(data, -1) {
			out = append(out, dyncoll.Match{Doc: id, Off: loc[0], Len: loc[1] - loc[0]})
		}
	}
	return out, nil
}

// topK ranks the documents containing p the way a ranked plan must:
// query.Score over (length, occurrences, first offset), best first,
// document ID ascending on ties.
func (m *model) topK(p []byte, k int) []dyncoll.Match {
	var out []dyncoll.Match
	var buf []int
	for id, data := range m.docs {
		buf = offsets(buf[:0], data, p)
		if len(buf) == 0 {
			continue
		}
		out = append(out, dyncoll.Match{
			Doc: id, Off: buf[0], Len: len(p),
			Score: query.Score(len(data), len(buf), buf[0]),
		})
	}
	slices.SortFunc(out, func(a, b dyncoll.Match) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return cmp.Compare(a.Doc, b.Doc)
	})
	return out[:min(k, len(out))]
}

func sortMatches(ms []dyncoll.Match) {
	slices.SortFunc(ms, func(a, b dyncoll.Match) int {
		return cmp.Or(cmp.Compare(a.Doc, b.Doc), cmp.Compare(a.Off, b.Off), cmp.Compare(a.Len, b.Len))
	})
}

// check compares the system's answer to a read with the model's. A nil
// return means they agree.
func (m *model) check(o *op, a answer) error {
	if a.err != nil {
		return a.err
	}
	switch o.class {
	case opCount:
		if want := m.count(o.pattern); a.n != want {
			return fmt.Errorf("count %q: got %d, want %d", o.pattern, a.n, want)
		}
	case opFind:
		// Order is unspecified: the answer must be the right number of
		// distinct true occurrences.
		if want := min(m.count(o.pattern), findLimit); len(a.occs) != want {
			return fmt.Errorf("find %q: got %d occurrences, want %d", o.pattern, len(a.occs), want)
		}
		seen := make(map[dyncoll.Occurrence]bool, len(a.occs))
		for _, oc := range a.occs {
			data, ok := m.docs[oc.DocID]
			if !ok || oc.Off < 0 || !bytes.HasPrefix(data[min(oc.Off, len(data)):], o.pattern) || seen[oc] {
				return fmt.Errorf("find %q: bad or repeated occurrence %+v", o.pattern, oc)
			}
			seen[oc] = true
		}
	case opExtract:
		data, ok := m.docs[o.id]
		if !ok {
			return fmt.Errorf("extract: model has no document %d", o.id)
		}
		if want := data[o.off:min(o.off+extractLen, len(data))]; !bytes.Equal(a.data, want) {
			return fmt.Errorf("extract doc %d off %d: got %d bytes that differ from the document", o.id, o.off, len(a.data))
		}
	case opSearch:
		want, err := m.regexMatches(o.regex(), o.pattern[:searchLit])
		if err != nil {
			return err
		}
		got := slices.Clone(a.regex)
		sortMatches(got)
		sortMatches(want)
		if !slices.Equal(got, want) {
			return fmt.Errorf("regex %q: got %d matches, want %d (or they differ)", o.regex(), len(got), len(want))
		}
		if want := m.topK(o.pattern[:searchLit], topK); !slices.Equal(a.ranked, want) {
			return fmt.Errorf("top-%d %q: got %v, want %v", topK, o.pattern[:searchLit], a.ranked, want)
		}
	}
	return nil
}
