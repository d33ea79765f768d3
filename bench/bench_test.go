package main

import (
	"bytes"
	"hash/fnv"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// toy shrinks a workload until a run takes a fraction of a second; the
// shape (classes, batch ratio, deployment) stays.
func toy(w *workload) *workload {
	t := *w
	t.corpus, t.ingestBatch = 128<<10, 16
	for class, n := range w.mix {
		t.mix[class] = max(n/8, 2)
	}
	return &t
}

func toyConfig(t *testing.T, w *workload, seed int64, trace bool) runConfig {
	cfg := defaultConfig(toy(w), seed, 0, trace)
	cfg.outDir = t.TempDir()
	cfg.setups, cfg.reopens, cfg.rounds, cfg.verifyOps, cfg.probeCalls = 1, 1, 2, 32, 100
	return cfg
}

func TestOpStreamFollowsSeed(t *testing.T) {
	stream := func(seed int64) uint64 {
		w := toy(workloadByName("lib_churn"))
		c := newClient(w, seed, 0, 1, corpus(w, seed))
		return hashOps(append(c.round(1), c.round(tailDiv)...))
	}
	if a, b := stream(7), stream(7); a != b {
		t.Errorf("same seed, different op streams: %x and %x", a, b)
	}
	if a, b := stream(7), stream(8); a == b {
		t.Errorf("seeds 7 and 8 give the same op stream %x", a)
	}
	// The text follows the seed; the document lengths do not.
	w := toy(workloadByName("lib_churn"))
	a, b := corpus(w, 7), corpus(w, 8)
	if len(a) != len(b) {
		t.Fatalf("seeds 7 and 8 preload %d and %d documents", len(a), len(b))
	}
	for i := range a {
		if len(a[i].Data) != len(b[i].Data) {
			t.Fatalf("document %d is %d bytes under seed 7 and %d under seed 8", i, len(a[i].Data), len(b[i].Data))
		}
	}
	if bytes.Equal(a[0].Data, b[0].Data) {
		t.Error("seeds 7 and 8 give the same text")
	}
}

func TestRoundKeepsSizeAndMix(t *testing.T) {
	for _, full := range workloads {
		for _, w := range []*workload{full, toy(full)} {
			if w.batch*w.mix[opInsert]%w.mix[opDelete] != 0 {
				t.Errorf("%s: %d inserts of %d documents do not divide among %d deletes", w.name, w.mix[opInsert], w.batch, w.mix[opDelete])
			}
		}
		w := toy(full)
		c := newClient(w, 3, 0, 1, corpus(w, 3))
		before := len(c.base) + len(c.fifo)
		got := [numClasses]int{}
		for _, o := range c.round(1) {
			got[o.class]++
		}
		if got != w.mix {
			t.Errorf("%s: round has per-class counts %v, want %v", w.name, got, w.mix)
		}
		if after := len(c.base) + len(c.fifo); after != before {
			t.Errorf("%s: a round changed the live document count from %d to %d", w.name, before, after)
		}
	}
}

func TestSummaries(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if xs[0] != 9 {
		t.Error("median reordered its argument")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.99, 10}, {0, 1}, {1, 10}} {
		if got := percentile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestModelCountsOverlaps(t *testing.T) {
	if got := offsets(nil, []byte("aaaa"), []byte("aa")); len(got) != 3 {
		t.Errorf("offsets of aa in aaaa = %v, want three", got)
	}
}

// TestBenchmarkFile holds BENCHMARK.json and the program to each other:
// the same workloads, the same metrics in the same order with the same
// units, and every field inside the limits the driver enforces.
func TestBenchmarkFile(t *testing.T) {
	b, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	legal := func(n, u string) {
		if !name.MatchString(n) || !unit.MatchString(u) {
			t.Errorf("illegal name %q or unit %q", n, u)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		legal(w.Name, "x")
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in the file, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) || len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("file lists %d+%d metrics, program %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
	}
	for i, m := range b.EndToEnd {
		legal(m.Name, m.Unit)
		if d := endToEndMetrics[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end-to-end metric %d: file has %s [%s], program %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	for i, m := range b.PerLayer {
		legal(m.Name, m.Unit)
		if d := perLayerMetrics[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer metric %d: file has %s [%s], program %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not listed")
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
}

// TestLayerTable holds the layer table of README.md to layerMoves: every
// per-layer metric sits in a row of the table, and that row names every
// end-to-end metric and workload the layer is predicted to move.
func TestLayerTable(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	endToEnd := map[string]bool{}
	for _, d := range endToEndMetrics {
		endToEnd[d.name] = true
	}
	rows := strings.Split(string(readme), "\n")
	for _, d := range perLayerMetrics {
		lm, ok := layerMoves[layerOf(d.name)]
		if !ok {
			t.Errorf("%s: layer %q has no prediction in layerMoves", d.name, layerOf(d.name))
			continue
		}
		var row string
		for _, line := range rows {
			if strings.HasPrefix(line, "| ") && strings.Contains(line, "`"+d.name+"`") {
				row = line
				break
			}
		}
		if row == "" {
			t.Errorf("%s is in no row of README.md's layer table", d.name)
			continue
		}
		for _, name := range lm.moves {
			if !endToEnd[name] {
				t.Errorf("layer %s is predicted to move %q, which is not an end-to-end metric", layerOf(d.name), name)
			}
			if !strings.Contains(row, "`"+name+"`") {
				t.Errorf("README.md's row for %s does not name %s", d.name, name)
			}
		}
		for _, name := range lm.on {
			if workloadByName(name) == nil {
				t.Errorf("layer %s is predicted to show on unknown workload %q", layerOf(d.name), name)
			}
			if len(lm.on) < len(allWorkloads) && !strings.Contains(row, "`"+name+"`") {
				t.Errorf("README.md's row for %s does not name workload %s", d.name, name)
			}
		}
	}
}

// TestRunsReportExactlyTheListedMetrics runs every workload at toy size,
// untraced and traced: no op may fail, every listed metric must be a
// finite number under its own unit, and nothing unlisted may appear.
func TestRunsReportExactlyTheListedMetrics(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			defs, mode := endToEndMetrics, "untraced"
			if trace {
				defs, mode = perLayerMetrics, "traced"
			}
			var log bytes.Buffer
			cfg := toyConfig(t, w, 11, trace)
			cfg.log = &log
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s %s: %v\n%s", w.name, mode, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s %s: correct=%v, %d of %d ops failed\n%s", w.name, mode, res.Correct, res.Failed, res.Attempted, log.String())
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s %s: %d metrics reported, %d listed", w.name, mode, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s %s: metric %s [%s] reported as %+v (present %v)", w.name, mode, d.name, d.unit, m, ok)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}

// TestLogCountsRepeat: with one client the log-side counts are a
// function of the seed alone.
func TestLogCountsRepeat(t *testing.T) {
	w := workloadByName("durable_restart")
	var runs [2]map[string]metric
	for i := range runs {
		res, err := run(toyConfig(t, w, 5, true))
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = res.Metrics
	}
	for _, name := range []string{"wal.fsyncs_per_op", "wal.writes_per_op", "wal.bytes_per_user_byte", "snap.checkpoints", "snap.replay_records"} {
		if a, b := runs[0][name].Value, runs[1][name].Value; a != b || a <= 0 {
			t.Errorf("%s: %v then %v, want the same positive count", name, a, b)
		}
	}
}

// TestCorruptedAnswerFails: one falsified answer must turn the run
// incorrect, which main turns into a non-zero exit.
func TestCorruptedAnswerFails(t *testing.T) {
	cfg := toyConfig(t, workloadByName("lib_query"), 2, false)
	cfg.corrupt = true
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("a corrupted answer went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// hashOps folds an op stream into one number, for the test that the
// same seed gives the same stream.
func hashOps(ops []*op) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, o := range ops {
		put(uint64(o.class))
		h.Write(o.pattern)
		put(o.id)
		put(uint64(o.off))
		for _, d := range o.docs {
			put(d.ID)
			h.Write(d.Data)
		}
		for _, id := range o.ids {
			put(id)
		}
	}
	return h.Sum64()
}
