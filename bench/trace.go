package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
)

// span is one timed interval of a traced run, recorded from the
// benchmark's side of the call: an op around its facade or HTTP call, a
// round around its ops, a probe around one layer's exported function.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since process start
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span in the file, -1 for none
	Op     int    `json:"op"`     // op number within the run, -1 for rounds and probes
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records s and returns its index, for children to name as parent.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *tracer) end(i int, at int64) {
	t.mu.Lock()
	t.spans[i].End = at
	t.mu.Unlock()
}

// write puts the span file where README.md says to look for it.
func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
