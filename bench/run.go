package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"dyncoll"
	"dyncoll/internal/textgen"
)

// epoch anchors the monotonic clock every timing and span uses.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// runConfig is one invocation: a workload, a seed and how long to
// measure. The counts below are the benchmark's fixed shape; tests
// shrink them.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	outDir  string    // data files and traces; the caller sets it
	log     io.Writer // progress and sample counts, for a human

	setups     int  // builds of the initial state; setup_s is their median
	reopens    int  // reopen passes; reopen_s is their median
	rounds     int  // > 0: exactly this many measured rounds, whatever seconds says
	verifyOps  int  // queries of the pass run before close and after each reopen
	probeCalls int  // calls timed per point-query layer probe
	corrupt    bool // self-test: falsify one recorded answer before checking
}

func defaultConfig(w *workload, seed int64, seconds float64, trace bool) runConfig {
	cfg := runConfig{
		w: w, seed: seed, seconds: seconds, trace: trace, log: io.Discard,
		setups: 3, reopens: 5, verifyOps: 512, probeCalls: 2000,
	}
	if trace {
		cfg.setups, cfg.reopens = 1, 1 // end-to-end numbers come from the untraced run
	}
	return cfg
}

// corpus generates the workload's preload: the text from the seed, the
// document lengths from the workload's fixed sequence, cut to whole
// ingest batches, so that no part batch is left behind in C0, which costs
// several times the bits per symbol of a compressed store.
func corpus(w *workload, seed int64) []dyncoll.Document {
	tg := textgen.NewCollection(textgen.CollectionOptions{Seed: seed})
	lens := newLengths(w, -1)
	var docs []dyncoll.Document
	for tg.Total < w.corpus {
		docs = append(docs, tg.NextDocLen(lens.next()))
	}
	return docs[:len(docs)/w.ingestBatch*w.ingestBatch]
}

// tailDiv is how much shorter than a measured round the tail round is.
const tailDiv = 2

// check is one sampled read: its answer, and how many writes had been
// acknowledged when it ran.
type check struct {
	after int
	op    *op
	got   answer
}

// recorder keeps what verification needs and nothing is checked while
// the clock runs: scanning the model's documents inside the loop would
// evict the index from the CPU caches and bill the model's CPU to the
// system. The write log and the sampled answers are replayed afterwards.
type recorder struct {
	mu     sync.Mutex
	writes []*op
	checks []check
}

func (r *recorder) note(o *op, a answer) {
	r.mu.Lock()
	if o.class >= opInsert {
		if a.err == nil {
			r.writes = append(r.writes, o)
		}
	} else if o.check {
		r.checks = append(r.checks, check{after: len(r.writes), op: o, got: a})
	}
	r.mu.Unlock()
}

// runner holds one run's state.
type runner struct {
	cfg     runConfig
	sys     system
	targets []target
	clients []*client
	rec     recorder
	tr      *tracer
	// gate lets a sampled read of a multi-client workload run with no
	// write in flight, so the writes acknowledged before it are exactly
	// the state it saw.
	gate sync.RWMutex

	attempted, failed int
	firstErr          error
	opSeq             int

	samples    [numClasses][]float64 // µs per op, measured rounds pooled (the tails)
	roundP50   [numClasses][]float64 // each measured round's median latency per class
	pendingMax int
}

func (r *runner) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// roundStat is one round as the clock and the kernel saw it.
type roundStat struct {
	ops       int
	writes    int     // inserts and deletes among ops
	userBytes int     // payload bytes the inserts add
	wall      float64 // seconds
	cpu       float64 // user+sys seconds of the whole process
	traced    bool
}

// tally counts a round's writes and the payload bytes they insert.
func tally(ops []*op) roundStat {
	rs := roundStat{ops: len(ops)}
	for _, o := range ops {
		if o.class >= opInsert {
			rs.writes++
			rs.userBytes += totalBytes(o.docs)
		}
	}
	return rs
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// clientRun is what one client brings back from a round.
type clientRun struct {
	samples [numClasses][]float64
	errs    []error
	pending int
}

// runOps drives one client's share of a round: closed loop, the next op
// goes out when the previous reply is in.
func (r *runner) runOps(t target, ops []*op, parent, firstID int, spans bool) clientRun {
	var out clientRun
	multi := len(r.targets) > 1
	for i, o := range ops {
		if multi {
			if o.check {
				r.gate.Lock()
			} else {
				r.gate.RLock()
			}
		}
		start := now()
		ns, a := execute(t, o)
		if spans {
			r.tr.add(span{Name: classNames[o.class], Start: start, End: start + ns, Parent: parent, Op: firstID + i})
			// Stats walks the whole ladder, so builds in flight are
			// sampled after one write in 32, not after each.
			if o.class >= opInsert && i%32 == 0 {
				out.pending = max(out.pending, pendingBuilds(r.sys))
			}
		}
		if r.cfg.w.paced && o.class >= opInsert {
			waitIdle(r.sys) // inside the round's wall time and CPU, outside the op's latency
		}
		r.rec.note(o, a)
		if multi {
			if o.check {
				r.gate.Unlock()
			} else {
				r.gate.RUnlock()
			}
		}
		if a.err != nil {
			out.errs = append(out.errs, a.err)
		}
		out.samples[o.class] = append(out.samples[o.class], float64(ns)/1e3)
	}
	return out
}

func pendingBuilds(s system) int {
	n := 0
	for _, c := range s.colls() {
		n += c.Stats().PendingBuilds
	}
	return n
}

// round generates and runs one round on every client. Generation is
// outside the measured window; keep says whether the samples count, div
// shortens the round.
func (r *runner) round(name string, div int, keep, spans bool) roundStat {
	batches := make([][]*op, len(r.clients))
	firstID := make([]int, len(r.clients))
	var rs roundStat
	for i, c := range r.clients {
		batches[i] = c.round(div)
		firstID[i] = r.opSeq
		r.opSeq += len(batches[i])
		t := tally(batches[i])
		rs.ops, rs.writes, rs.userBytes = rs.ops+t.ops, rs.writes+t.writes, rs.userBytes+t.userBytes
	}
	parent := -1
	if spans {
		parent = r.tr.add(span{Name: name, Start: now(), Parent: -1, Op: -1})
	}
	runs := make([]clientRun, len(r.clients))
	cpu0, t0 := cpuSeconds(), now()
	var wg sync.WaitGroup
	for i := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i] = r.runOps(r.targets[i], batches[i], parent, firstID[i], spans)
		}()
	}
	wg.Wait()
	t1, cpu1 := now(), cpuSeconds()
	if spans {
		r.tr.end(parent, t1)
	}
	r.attempted += rs.ops
	for _, cr := range runs {
		for _, err := range cr.errs {
			r.fail(err)
		}
		r.pendingMax = max(r.pendingMax, cr.pending)
	}
	if keep {
		for class := range r.samples {
			var all []float64
			for _, cr := range runs {
				all = append(all, cr.samples[class]...)
			}
			r.samples[class] = append(r.samples[class], all...)
			r.roundP50[class] = append(r.roundP50[class], percentile(all, 0.5))
		}
	}
	rs.wall, rs.cpu, rs.traced = float64(t1-t0)/1e9, cpu1-cpu0, spans
	return rs
}

// liveHeap is HeapAlloc after collection, in bytes. It collects twice: a
// sync.Pool gives its contents up only at the second cycle, and index
// construction keeps scratch buffers of tens of megabytes in one.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// sameAnswer reports whether two answers to one verification query
// agree; regex matches come in unspecified order.
func sameAnswer(a, b answer) bool {
	ra, rb := slices.Clone(a.regex), slices.Clone(b.regex)
	sortMatches(ra)
	sortMatches(rb)
	return a.err == nil && b.err == nil && a.n == b.n && string(a.data) == string(b.data) &&
		slices.Equal(ra, rb) && slices.Equal(a.ranked, b.ranked)
}

// run executes one benchmark invocation and returns its result line.
func run(cfg runConfig) (res result, err error) {
	w := cfg.w
	r := &runner{cfg: cfg}
	if cfg.trace {
		r.tr = &tracer{}
	}
	v := values{}
	pt := &phaseTimer{log: cfg.log, last: now()}
	docs := corpus(w, cfg.seed)
	fmt.Fprintf(cfg.log, "workload %s seed %d: %d documents, %d bytes preloaded; data under %s (%s)\n",
		w.name, cfg.seed, len(docs), totalBytes(docs), cfg.outDir, fsType(cfg.outDir))

	// Set-up, several times over: build the preload, then run the
	// workload's warm-up rounds of its own ops so that measurement starts
	// from a ladder already in use, and wait for builds to land. setup_s
	// is the median of these; the last one is the state measured.
	dir := filepath.Join(cfg.outDir, w.name)
	var setup []float64
	var heap0 float64
	for rep := range cfg.setups {
		if err := os.RemoveAll(dir); err != nil {
			return res, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return res, err
		}
		r.sys, r.targets, r.clients, r.rec = nil, nil, nil, recorder{} // the previous build must not count as live
		heap0 = liveHeap()
		t0 := now()
		sys, err := w.build(dir, docs, w, cfg.trace)
		var paused int64
		if err == nil {
			waitIdle(sys)
			r.sys, r.targets = sys, sys.targets()
			for i := range r.targets {
				r.clients = append(r.clients, newClient(w, cfg.seed, i, len(r.targets), docs))
			}
			if rep == cfg.setups-1 {
				// Space is read off the preload alone, with the clock
				// stopped: a ladder of compressed stores, before the
				// warm-up round puts a varying share of it back into
				// the uncompressed C0.
				p0 := now()
				v["live_heap_mb"] = (liveHeap() - heap0) / 1e6
				var bits, syms int64
				for _, c := range sys.colls() {
					bits += c.SizeBits()
					syms += int64(c.Len())
				}
				v["bits_per_symbol"] = float64(bits) / float64(syms)
				paused = now() - p0
			}
			for range w.warmRounds {
				r.round("warm-up", 1, false, false)
			}
			waitIdle(sys)
		}
		setup = append(setup, float64(now()-t0-paused)/1e9)
		if err == nil && rep < cfg.setups-1 {
			err = sys.close()
		}
		if err != nil {
			if sys != nil {
				err = errors.Join(err, sys.close())
			}
			return res, fmt.Errorf("set-up: %w", err)
		}
		r.attempted += (len(docs) + w.ingestBatch - 1) / w.ingestBatch // the preload's batches
	}
	defer func() {
		err = errors.Join(err, r.sys.close())
		if rmErr := os.RemoveAll(dir); err == nil {
			err = rmErr
		}
	}()
	pt.mark("set-up")
	v["setup_s"] = median(setup)

	// Measured phase: as many rounds of fixed size as fill the requested
	// seconds at the workload's nominal rate, so every run of one seed
	// does identical work. In a traced run every other round records
	// spans; the difference between the two kinds is the tracing
	// overhead.
	stats0 := engineStats(r.sys)
	var rounds []roundStat
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	n := cfg.rounds
	if n == 0 {
		n = w.roundsFor(cfg.seconds)
	}
	for i := range n {
		rounds = append(rounds, r.round(fmt.Sprintf("round-%d", i), 1, true, cfg.trace && i%2 == 0))
	}
	runtime.ReadMemStats(&mem1)
	pt.mark("rounds")
	t0 := now()
	if err := r.sys.settle(); err != nil {
		return res, err
	}
	settleMs := float64(now()-t0) / 1e6
	stats1 := engineStats(r.sys)

	// A tail round from the settled point, so that what is saved and
	// reopened is a live structure: fresh documents in C0 and, behind
	// the durable system's checkpoint, a log tail of fixed length.
	var fs0 counts
	dur, _ := r.sys.(*durableSys)
	if dur != nil && dur.fs != nil {
		fs0 = dur.fs.snapshot()
	}
	tail := r.round("tail", tailDiv, false, false)
	waitIdle(r.sys)

	// Persistence: record the verification pass, save, take the live
	// structure away, and reopen from the files alone.
	pass := r.clients[0].verifyPass(cfg.verifyOps)
	want := make([]answer, len(pass))
	for i, o := range pass {
		_, want[i] = execute(r.targets[0], o)
		if want[i].err != nil {
			r.fail(want[i].err)
		}
	}
	r.attempted += len(pass)
	pt.mark("tail+pass")
	disk, user, err := r.sys.persist()
	if err != nil {
		return res, fmt.Errorf("persist: %w", err)
	}
	var reopen []float64
	for range cfg.reopens {
		if err := r.sys.stop(); err != nil {
			return res, fmt.Errorf("stop: %w", err)
		}
		runtime.GC() // every pass starts from the same heap, not from the last pass's garbage
		t0 := now()
		if err := r.sys.reopen(); err != nil {
			return res, fmt.Errorf("reopen: %w", err)
		}
		t := r.sys.targets()[0]
		for i, o := range pass {
			if _, got := execute(t, o); !sameAnswer(got, want[i]) {
				r.fail(fmt.Errorf("after reopen: %s answer differs from the one recorded before close", classNames[o.class]))
			}
		}
		reopen = append(reopen, float64(now()-t0)/1e9)
		r.attempted += len(pass)
	}
	pt.mark("reopen")

	// Verification against the reference model, off the clock.
	if cfg.corrupt && len(r.rec.checks) > 0 {
		r.rec.checks[0].got.n++
		r.rec.checks[0].got.data = append(r.rec.checks[0].got.data, 'x')
		r.rec.checks[0].got.occs = append(r.rec.checks[0].got.occs, dyncoll.Occurrence{})
		r.rec.checks[0].got.ranked = append(r.rec.checks[0].got.ranked, dyncoll.Match{})
	}
	r.verify(docs, pass, want)
	pt.mark("verify")

	// The numbers. A timing repeated within the run is summarised by its
	// median over rounds (or passes), so that one burst from a neighbour
	// cannot move it; throughput is all measured ops over all measured time.
	var cpuPerOp []float64
	var all, traced, plain roundStat
	for _, rs := range rounds {
		cpuPerOp = append(cpuPerOp, rs.cpu*1e6/float64(rs.ops))
		all.ops, all.wall = all.ops+rs.ops, all.wall+rs.wall
		if rs.traced {
			traced.ops, traced.wall = traced.ops+rs.ops, traced.wall+rs.wall
		} else {
			plain.ops, plain.wall = plain.ops+rs.ops, plain.wall+rs.wall
		}
	}
	fmt.Fprintf(cfg.log, "%d measured rounds of %d ops in %.2f s\n  cpu us/op per round %.0f\n",
		len(rounds), rounds[0].ops, all.wall, cpuPerOp)
	for class, name := range classNames {
		fmt.Fprintf(cfg.log, "  %-7s %5d samples, p50 us per round %.0f\n", name, len(r.samples[class]), r.roundP50[class])
	}
	fmt.Fprintf(cfg.log, "  reopen passes %.3f s\n", reopen)

	defs := endToEndMetrics
	if !cfg.trace {
		v["ops_per_s"] = float64(all.ops) / all.wall
		v["cpu_us_per_op"] = median(cpuPerOp)
		for class, name := range classNames {
			v[name+"_p50_us"] = median(r.roundP50[class])
		}
		v["reopen_s"] = median(reopen)
		v["disk_bytes_per_user_byte"] = float64(disk) / float64(user)
	} else {
		defs = perLayerMetrics
		v = values{} // set-up's space readings belong to the untraced run
		for _, class := range []int{opCount, opFind, opSearch, opInsert, opDelete} {
			v["tail."+classNames[class]+"_p99_us"] = percentile(r.samples[class], 0.99)
		}
		plainRate, tracedRate := float64(plain.ops)/plain.wall, float64(traced.ops)/traced.wall
		v["trace.overhead_pct"] = 100 * (plainRate - tracedRate) / plainRate
		v["runtime.allocs_per_op"] = float64(mem1.Mallocs-mem0.Mallocs) / float64(all.ops)
		v["runtime.alloc_bytes_per_op"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / float64(all.ops)
		v["runtime.gc_cycles"] = float64(mem1.NumGC - mem0.NumGC)
		v["runtime.gc_pause_ms"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
		v["engine.stores"] = float64(stats1.stores) / float64(r.sys.replicas())
		v["engine.rebuilds"] = float64(stats1.rebuilds - stats0.rebuilds)
		v["engine.global_rebuilds"] = float64(stats1.global - stats0.global)
		v["engine.pending_builds_max"] = float64(r.pendingMax)
		v["engine.wait_idle_ms"] = settleMs
		v["engine.insert_max_us"] = slices.Max(r.samples[opInsert])
		v["shard.imbalance"] = stats1.imbalance
		if err := r.probes(v, docs, dur, fs0, tail); err != nil {
			return res, fmt.Errorf("probes: %w", err)
		}
		if err := r.tr.write(filepath.Join(cfg.outDir, "trace-"+w.name+".json"), w.name, cfg.seed); err != nil {
			return res, err
		}
	}
	if r.firstErr != nil {
		fmt.Fprintf(cfg.log, "first failure: %v\n", r.firstErr)
	}
	res = result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed}
	res.Metrics, err = v.report(defs)
	return res, err
}

// verify checks, against the reference model, every sampled read at the
// point it ran, one in eleven answers of the pre-close pass (a stride
// that visits every kind of query in it) at the final state, and the
// final size. A check scans the whole corpus, so the checks are dealt out
// to one worker per core; each worker replays the write log over a model
// of its own.
func (r *runner) verify(docs []dyncoll.Document, pass []*op, want []answer) {
	checks, writes := r.rec.checks, r.rec.writes
	sampled := len(checks)
	for i := 0; i < len(pass); i += 11 {
		checks = append(checks, check{after: len(writes), op: pass[i], got: want[i]})
	}
	const workers = 2
	var wg sync.WaitGroup
	var errs [workers][]error
	var models [workers]*model
	for k := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := newModel(docs)
			applied := 0
			for i := k; i < len(checks); i += workers {
				for ; applied < checks[i].after; applied++ {
					m.apply(writes[applied])
				}
				if err := m.check(checks[i].op, checks[i].got); err != nil {
					errs[k] = append(errs[k], err)
				}
			}
			for ; applied < len(writes); applied++ {
				m.apply(writes[applied])
			}
			models[k] = m
		}()
	}
	wg.Wait()
	for _, es := range errs {
		for _, err := range es {
			r.fail(err)
		}
	}
	m := models[0]
	gotDocs, gotSyms := 0, 0
	for _, c := range r.sys.colls() {
		gotDocs += c.DocCount()
		gotSyms += c.Len()
	}
	if k := r.sys.replicas(); gotDocs != k*len(m.docs) || gotSyms != k*m.syms {
		r.fail(fmt.Errorf("final size: %d documents, %d symbols in %d replica(s); the model holds %d, %d",
			gotDocs, gotSyms, k, len(m.docs), m.syms))
	}
	fmt.Fprintf(r.cfg.log, "verified %d sampled reads, %d writes replayed, %d pass answers, final size %d documents\n",
		sampled, len(writes), len(checks)-sampled, len(m.docs))
}

func totalBytes(docs []dyncoll.Document) int {
	n := 0
	for _, d := range docs {
		n += len(d.Data)
	}
	return n
}

// fsType names the filesystem under dir, so a reader can tell a tmpfs
// reading from a disk one.
func fsType(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("fs type %#x", uint32(st.Type))
}

// engineCounters sums the ladder statistics the per-layer budget needs.
type engineCounters struct {
	stores    int // levels in use plus tops: the stores one query visits
	rebuilds  int
	global    int
	imbalance float64 // max/mean shard size of the first sharded collection
}

func engineStats(s system) engineCounters {
	var e engineCounters
	e.imbalance = 1
	for i, c := range s.colls() {
		st := c.Stats()
		for _, n := range st.LevelSizes {
			if n > 0 {
				e.stores++
			}
		}
		e.stores += st.Tops
		e.rebuilds += st.Rebuilds
		e.global += st.GlobalRebuilds
		if sizes := c.ShardSizes(); i == 0 && len(sizes) > 0 {
			sum := 0
			for _, n := range sizes {
				sum += n
			}
			e.imbalance = float64(slices.Max(sizes)) * float64(len(sizes)) / float64(sum)
		}
	}
	return e
}

// phaseTimer logs how long each part of a run took, for sizing.
type phaseTimer struct {
	log  io.Writer
	last int64
}

func (p *phaseTimer) mark(name string) {
	t := now()
	fmt.Fprintf(p.log, "  phase %-12s %6.2f s\n", name, float64(t-p.last)/1e9)
	p.last = t
}
