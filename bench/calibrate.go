package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkFile is BENCHMARK.json as calibration and the tests read it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return b, dec.Decode(&b)
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// how the driver computes a metric's spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := min(max(int(pos), 1), len(s)-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// issueBound is the regression bound the benchmark's issue fixed for each
// end-to-end metric. Calibration holds every metric to it, whatever
// BENCHMARK.json gates on: a bound in the file wider than this one marks a
// metric this machine could not resolve, not a looser standard.
func issueBound(metric string) float64 {
	switch metric {
	case "setup_s":
		return 0.15
	case "cpu_us_per_op":
		return 0.07
	case "bits_per_symbol", "disk_bytes_per_user_byte":
		return 0.02
	case "live_heap_mb":
		return 0.05
	}
	return 0.10 // ops_per_s, the six p50s, reopen_s
}

// calibrateSuites runs every workload (or only the one named) n times as
// the driver would — a fresh process and another seed each time — and
// prints, per workload and end-to-end metric, the median, the quartiles,
// the quartile distance as a share of the median (the driver's spread) and
// the full range as a share of the median. A metric is resolved when its
// range is at most half the issue's bound, setup_s included. Calibration
// fails if any metric is unresolved, and also if a quartile distance
// exceeds the bound BENCHMARK.json gates on, which is what the driver
// refuses.
func calibrateSuites(n int, only, outDir string, w io.Writer) error {
	if n < 6 {
		return fmt.Errorf("calibrate needs at least 6 suites, got %d", n)
	}
	b, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("calibrate runs from the repository root: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// readings[workload][metric] is one value per suite.
	readings := map[string]map[string][]float64{}
	for suite := range n {
		for _, wl := range b.Workloads {
			if only != "" && wl.Name != only {
				continue
			}
			cmd := exec.Command(self, "-workload", wl.Name, "-seed", strconv.Itoa(1000+suite),
				"-seconds", strconv.Itoa(b.RunSeconds), "-trace", "0", "-out", outDir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("suite %d, %s: %w", suite, wl.Name, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("suite %d, %s: result line: %w", suite, wl.Name, err)
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("suite %d, %s: %d of %d ops failed", suite, wl.Name, res.Failed, res.Attempted)
			}
			if readings[wl.Name] == nil {
				readings[wl.Name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				readings[wl.Name][name] = append(readings[wl.Name][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "suite %d/%d %s seed %d: %s\n", suite+1, n, wl.Name, 1000+suite, lines[len(lines)-1])
		}
	}
	fmt.Fprintf(w, "| workload | metric | unit | median | q1 | q3 | (q3-q1)/median | (max-min)/median | issue bound | gated bound | verdict |\n")
	fmt.Fprintf(w, "|---|---|---|---:|---:|---:|---:|---:|---:|---:|---|\n")
	var unresolved, refused []string
	cells := 0
	for _, wl := range b.Workloads {
		if readings[wl.Name] == nil {
			continue
		}
		for _, m := range b.EndToEnd {
			xs := readings[wl.Name][m.Name]
			med := median(xs)
			q1, q3 := quartiles(xs)
			s := append([]float64(nil), xs...)
			sort.Float64s(s)
			spread, width, want := (q3-q1)/med, (s[len(s)-1]-s[0])/med, issueBound(m.Name)
			verdict := "resolved"
			if width > want/2 {
				verdict = "unresolved"
				unresolved = append(unresolved, wl.Name+"/"+m.Name)
			}
			if spread > m.Bound && m.Name != "setup_s" { // the driver holds setup_s to its medians only
				verdict = "REFUSED"
				refused = append(refused, wl.Name+"/"+m.Name)
			}
			cells++
			fmt.Fprintf(w, "| %s | %s | %s | %.4g | %.4g | %.4g | %.2f%% | %.2f%% | %.0f%% | %.0f%% | %s |\n",
				wl.Name, m.Name, m.Unit, med, q1, q3, 100*spread, 100*width, 100*want, 100*m.Bound, verdict)
		}
	}
	fmt.Fprintf(w, "\n%d of %d workload × metric pairs are unresolved at the issue's bound (range above half of it).\n", len(unresolved), cells)
	switch {
	case len(refused) > 0:
		return fmt.Errorf("quartile distance above the gated bound, which the driver refuses: %v", refused)
	case len(unresolved) > 0:
		return fmt.Errorf("%d metrics unresolved at the issue's bound: %v", len(unresolved), unresolved)
	}
	return nil
}
