package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// metricDef names one reported number. The lists below are the
// program's side of BENCHMARK.json; bench_test.go keeps the two equal.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"count_p50_us", "us"},
	{"find_p50_us", "us"},
	{"extract_p50_us", "us"},
	{"search_p50_us", "us"},
	{"insert_p50_us", "us"},
	{"delete_p50_us", "us"},
	{"reopen_s", "s"},
	{"bits_per_symbol", "bits"},
	{"disk_bytes_per_user_byte", "ratio"},
	{"live_heap_mb", "MB"},
}

var perLayerMetrics = []metricDef{
	{"bitvec.rank1_ns", "ns"},
	{"bitvec.select1_ns", "ns"},
	{"wavelet.rank_ns", "ns"},
	{"wavelet.access_ns", "ns"},
	{"wavelet.build_ns_per_sym", "ns"},
	{"sa.build_ns_per_sym", "ns"},
	{"fmindex.range_ns", "ns"},
	{"fmindex.locate_ns", "ns"},
	{"fmindex.extract_ns_per_sym", "ns"},
	{"fmindex.build_ns_per_sym", "ns"},
	{"fmindex.bits_per_sym", "bits"},
	{"fmindex.csa_range_ns", "ns"},
	{"core.count_ns", "ns"},
	{"core.find_ns_per_occ", "ns"},
	{"core.insert_ns_per_sym", "ns"},
	{"core.delete_ns_per_sym", "ns"},
	{"engine.stores", "count"},
	{"engine.rebuilds", "count"},
	{"engine.global_rebuilds", "count"},
	{"engine.pending_builds_max", "count"},
	{"engine.wait_idle_ms", "ms"},
	{"engine.insert_max_us", "us"},
	{"query.compile_ns", "ns"},
	{"query.regex_ns", "ns"},
	{"query.topk_ns", "ns"},
	{"fanout.handoff_ns", "ns"},
	{"shard.imbalance", "ratio"},
	{"wal.append_ns", "ns"},
	{"wal.commit_us", "us"},
	{"wal.fsyncs_per_op", "count"},
	{"wal.writes_per_op", "count"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"snap.checkpoints", "count"},
	{"snap.checkpoint_ms", "ms"},
	{"snap.checkpoint_bytes_per_user_byte", "ratio"},
	{"snap.checkpoint_stall_max_us", "us"},
	{"snap.recover_ms", "ms"},
	{"snap.replay_records", "count"},
	{"snap.save_v1_mb_per_s", "MB/s"},
	{"snap.load_v1_mb_per_s", "MB/s"},
	{"snap.save_v2_mb_per_s", "MB/s"},
	{"snap.open_v2_us", "us"},
	{"server.inproc_count_us", "us"},
	{"server.backend_count_us", "us"},
	{"server.frontend_count_us", "us"},
	{"server.inproc_find_us", "us"},
	{"server.backend_find_us", "us"},
	{"server.frontend_find_us", "us"},
	{"server.backend_insert_us", "us"},
	{"server.json_bytes_per_occ", "bytes"},
	{"server.conns_accepted", "count"},
	{"server.hedges", "count"},
	{"server.retries", "count"},
	{"server.breaker_trips", "count"},
	{"binrel.add_ns", "ns"},
	{"binrel.labels_ns_per_result", "ns"},
	{"graph.add_edge_ns", "ns"},
	{"graph.successors_ns_per_edge", "ns"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"tail.count_p99_us", "us"},
	{"tail.find_p99_us", "us"},
	{"tail.search_p99_us", "us"},
	{"tail.insert_p99_us", "us"},
	{"tail.delete_p99_us", "us"},
	{"trace.overhead_pct", "%"},
}

// layerMoves is the prediction recorded with the per-layer metrics: for
// each layer (the part of a metric's name before the dot) the end-to-end
// metrics its numbers should move, and the workloads to look on.
// BENCHMARK.json has no field for it, so it lives here; a traced run
// prints it beside each metric and README.md carries the same table
// (TestLayerTable keeps the two equal).
var layerMoves = map[string]struct{ moves, on []string }{
	"bitvec":  {[]string{"count_p50_us", "find_p50_us"}, []string{"lib_query"}},
	"wavelet": {[]string{"count_p50_us", "extract_p50_us", "setup_s", "ops_per_s"}, []string{"lib_query", "lib_churn"}},
	"sa":      {[]string{"setup_s", "ops_per_s", "insert_p50_us"}, []string{"lib_churn"}},
	"fmindex": {[]string{"count_p50_us", "find_p50_us", "extract_p50_us", "bits_per_symbol"}, []string{"lib_query"}},
	"core":    {[]string{"count_p50_us", "find_p50_us", "insert_p50_us", "delete_p50_us"}, []string{"lib_query", "lib_churn"}},
	"engine":  {[]string{"count_p50_us", "bits_per_symbol", "ops_per_s"}, []string{"lib_query", "lib_churn"}},
	"query":   {[]string{"search_p50_us"}, allWorkloads},
	"fanout":  {[]string{"count_p50_us", "find_p50_us"}, []string{"lib_churn", "fleet_mixed"}},
	"shard":   {[]string{"count_p50_us", "find_p50_us"}, []string{"lib_churn", "fleet_mixed"}},
	"wal":     {[]string{"insert_p50_us", "ops_per_s", "disk_bytes_per_user_byte"}, []string{"durable_restart"}},
	"snap":    {[]string{"reopen_s", "disk_bytes_per_user_byte", "insert_p50_us"}, []string{"durable_restart", "lib_query", "lib_churn"}},
	"server":  {[]string{"count_p50_us", "find_p50_us", "insert_p50_us", "ops_per_s", "cpu_us_per_op"}, []string{"fleet_mixed"}},
	"binrel":  {nil, nil}, // probes only: they guard the shared engine for pair payloads
	"graph":   {nil, nil},
	"runtime": {[]string{"cpu_us_per_op", "live_heap_mb"}, allWorkloads},
	"tail":    {nil, allWorkloads},
	"trace":   {nil, allWorkloads},
}

var allWorkloads = []string{"lib_query", "lib_churn", "durable_restart", "fleet_mixed"}

// layerOf is the layer a per-layer metric belongs to.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, as the driver reads it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// values collects measurements by name while a run progresses.
type values map[string]float64

// report turns the collected values into the result's metric map. Every
// listed metric must have been measured and nothing else may be present:
// a gap or a stray name is a bug in the benchmark, not a reading.
func (v values) report(defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		x, ok := v[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: x, Unit: d.unit}
	}
	if len(v) != len(defs) {
		for name := range v {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is measured but not listed", name)
			}
		}
	}
	return out, nil
}

// print writes every metric by name with its unit, in listed order (a
// per-layer metric with the end-to-end metrics it should move), and the
// JSON result as the last line.
func (r result) print(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-38s %14.4f %s", d.name, m.Value, m.Unit)
		if lm := layerMoves[layerOf(d.name)]; len(lm.moves) > 0 {
			fmt.Fprintf(w, "  -> %s on %s", strings.Join(lm.moves, ", "), strings.Join(lm.on, ", "))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "ops attempted %d, failed %d\n", r.Attempted, r.Failed)
	line, _ := json.Marshal(r) // a map of floats and ints cannot fail to encode
	fmt.Fprintf(w, "%s\n", line)
}

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by the
// nearest-rank rule; xs is sorted in place. An empty sample reads 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median returns the middle value of xs (the mean of the middle two for
// an even count) without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
