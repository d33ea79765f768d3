// Command bench is the repository's benchmark: four workloads, thirteen
// end-to-end metrics each, and a traced run that adds a per-layer
// budget. See README.md beside this file and BENCHMARK.json at the root.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: lib_query, lib_churn, durable_restart or fleet_mixed")
		seed      = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds   = flag.Float64("seconds", 10, "how long the measured phase runs")
		trace     = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes the span file")
		calibrate = flag.Int("calibrate", 0, "run N full suites (of -workload alone, if given) and print each metric's spread against its bound")
		selftest  = flag.Bool("selftest", false, "falsify one recorded answer; the run must then exit non-zero")
		outDir    = flag.String("out", "bench/out", "directory for data files and traces")
	)
	flag.Parse()
	// Both cores, whatever the container's quota says: the load comes
	// from this one process, background rebuilds and servers included.
	runtime.GOMAXPROCS(2)

	if *calibrate > 0 {
		if err := calibrateSuites(*calibrate, *name, *outDir, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := defaultConfig(w, *seed, *seconds, *trace != 0)
	cfg.outDir, cfg.log, cfg.corrupt = *outDir, os.Stdout, *selftest
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	defs := endToEndMetrics
	if cfg.trace {
		defs = perLayerMetrics
	}
	res.print(os.Stdout, defs)
	if !res.Correct {
		os.Exit(1)
	}
}
