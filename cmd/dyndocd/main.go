// Command dyndocd serves the dynamic document collection over
// HTTP/JSON (stdlib only — no dependencies). It runs in one of three
// modes:
//
//	-mode=backend   (default) owns a sharded Collection and serves the
//	                full API: POST /v1/insert, POST /v1/delete,
//	                GET /v1/find (streaming NDJSON), /v1/count,
//	                /v1/extract, plus /varz metrics and /healthz.
//	                -snapshot=PATH restores the collection before
//	                listening (when the file exists) and writes the
//	                drain snapshot on SIGTERM. -wal=DIR instead makes
//	                the backend durable: mutations are WAL-logged and
//	                fsynced before the HTTP reply, checkpoints are
//	                incremental, and recovery (checkpoint + WAL tail)
//	                runs before listening — kill -9 loses nothing
//	                acknowledged.
//	-mode=frontend  stateless query router over -backends=h1,h2,…:
//	                keyed ops proxy to the replica set owning the
//	                document (versioned assignment table, -replication R
//	                or an explicit -assignment file), un-routable queries
//	                fan out one request per assignment row and the NDJSON
//	                streams merge with propagated early break. Every
//	                backend call carries a deadline (-op-timeout), reads
//	                retry with backoff (-retries, -retry-base) and hedge
//	                against slow replicas (-hedge), and per-backend
//	                circuit breakers (-breaker-failures,
//	                -breaker-cooldown) gate routing; /readyz reports
//	                degraded fleets.
//	-mode=loadtest  drives a running server (-target=URL) with a
//	                configurable writer/reader mix and reports QPS and
//	                p50/p95/p99 latency per operation. -fault runs a
//	                fault-injection schedule during measurement and
//	                reports per-second availability (-min-availability
//	                sets the pass/fail gate).
//
// Graceful drain: on SIGTERM (or Ctrl-C) the server stops accepting,
// finishes in-flight requests, quiesces background rebuilds (WaitIdle),
// writes the snapshot if -snapshot is set, and exits 0. A second signal
// kills the process immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dyncoll"
	"dyncoll/internal/server"
	"dyncoll/internal/shardmap"
)

func main() {
	var (
		mode     = flag.String("mode", "backend", "backend | frontend | loadtest")
		listen   = flag.String("listen", "127.0.0.1:7080", "listen address (backend, frontend)")
		snapshot = flag.String("snapshot", "", "snapshot path: restored before listening if present, written on drain (backend)")
		mapped   = flag.Bool("mmap", false, "use the v2 mapped snapshot format for -snapshot: O(1) restore, queries served from the page cache (backend)")
		backends = flag.String("backends", "", "comma-separated backend addresses (frontend)")
		drainFor = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown")

		// Fault tolerance (frontend).
		replication = flag.Int("replication", 1, "replica count R per assignment row; writes reach all R, reads any live one (frontend)")
		assignFile  = flag.String("assignment", "", "explicit JSON assignment table file; overrides -replication (frontend)")
		opTimeout   = flag.Duration("op-timeout", 5*time.Second, "per-backend-call deadline, also the stream stall watchdog (frontend)")
		retries     = flag.Int("retries", 3, "max attempts per retryable backend call (frontend)")
		retryBase   = flag.Duration("retry-base", 50*time.Millisecond, "first retry backoff; doubles per attempt with jitter (frontend)")
		brkFailures = flag.Int("breaker-failures", 3, "consecutive transport failures that trip a backend's circuit breaker (frontend)")
		brkCooldown = flag.Duration("breaker-cooldown", 2*time.Second, "open-breaker cooldown before the half-open probe (frontend)")
		hedge       = flag.Duration("hedge", 0, "hedged-read delay for ranked/count: 0 = adaptive p99, negative disables (frontend)")

		// Durability (backend; mutually exclusive with -snapshot).
		walDir    = flag.String("wal", "", "durable directory: WAL + incremental checkpoints; every acknowledged write survives kill -9 (backend)")
		walCkpt   = flag.Int64("wal-checkpoint", 0, "WAL bytes between automatic checkpoints; 0 = 64 MiB default, negative disables (backend)")
		walWindow = flag.Duration("wal-sync-window", time.Millisecond, "group-commit fsync batching window (backend)")

		// Collection construction (backend).
		index     = flag.String("index", "fm", "static index by registry name (backend)")
		sample    = flag.Int("s", 16, "suffix-array sample rate s (backend)")
		tau       = flag.Int("tau", 0, "lazy-deletion parameter τ, 0 = automatic (backend)")
		shards    = flag.Int("shards", 1, "shard count p ≥ 1; the server requires the concurrency-safe sharded collection (backend)")
		counting  = flag.Bool("counting", false, "enable Theorem 1 counting structures (backend)")
		transform = flag.String("transform", "", "transformation: amortized | worstcase | fastinsert (backend; default worstcase)")

		// Load test (loadtest).
		target   = flag.String("target", "http://127.0.0.1:7080", "server URL to drive (loadtest)")
		writers  = flag.Int("writers", 2, "concurrent writer goroutines (loadtest)")
		readers  = flag.Int("readers", 8, "concurrent reader goroutines (loadtest)")
		duration = flag.Duration("duration", 10*time.Second, "measurement duration (loadtest)")
		batch    = flag.Int("batch", 16, "documents per insert batch (loadtest)")
		docBytes = flag.Int("doc-bytes", 256, "approximate payload bytes per document (loadtest)")
		preload  = flag.Int("preload", 500, "documents inserted before measurement starts (loadtest)")
		idBase   = flag.Uint64("id-base", 1_000_000_000, "first document ID the load test allocates (loadtest)")
		fault    = flag.String("fault", "", "fault schedule fired during measurement, e.g. '3s:kill:PID,6s:run:CMD' (loadtest)")
		minAvail = flag.Float64("min-availability", 0, "overall availability fraction required to exit 0 when -fault or this flag is set (loadtest)")
	)
	flag.Parse()

	switch *mode {
	case "backend":
		runBackend(backendConfig{
			listen: *listen, snapshot: *snapshot, mapped: *mapped, drainTimeout: *drainFor,
			wal: *walDir, walCheckpoint: *walCkpt, walSyncWindow: *walWindow,
			index: *index, sample: *sample, tau: *tau, shards: *shards,
			counting: *counting, transform: *transform,
		})
	case "frontend":
		runFrontend(frontendConfig{
			listen: *listen, backends: *backends, drainTimeout: *drainFor,
			replication: *replication, assignment: *assignFile,
			opTimeout: *opTimeout, retries: *retries, retryBase: *retryBase,
			breakerFailures: *brkFailures, breakerCooldown: *brkCooldown,
			hedge: *hedge,
		})
	case "loadtest":
		runLoadtest(loadtestConfig{
			target: *target, writers: *writers, readers: *readers,
			duration: *duration, batch: *batch, docBytes: *docBytes,
			preload: *preload, idBase: *idBase,
			fault: *fault, minAvail: *minAvail,
		})
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q (backend | frontend | loadtest)\n", *mode)
		os.Exit(2)
	}
}

type backendConfig struct {
	listen, snapshot    string
	mapped              bool
	drainTimeout        time.Duration
	wal                 string
	walCheckpoint       int64
	walSyncWindow       time.Duration
	index               string
	sample, tau, shards int
	counting            bool
	transform           string
}

// buildOptions assembles the collection options from flags. The shard
// floor is 1: WithShards(1) is the documented concurrency-safe
// minimum, and HTTP handlers run concurrently.
func buildOptions(cfg backendConfig) ([]dyncoll.Option, error) {
	if cfg.shards < 1 {
		return nil, fmt.Errorf("-shards must be ≥ 1: the server runs handlers concurrently and needs the sharded locking layer")
	}
	opts := []dyncoll.Option{
		dyncoll.WithIndex(cfg.index),
		dyncoll.WithSampleRate(cfg.sample),
		dyncoll.WithTau(cfg.tau),
		dyncoll.WithShards(cfg.shards),
	}
	if cfg.counting {
		opts = append(opts, dyncoll.WithCounting())
	}
	switch cfg.transform {
	case "amortized":
		opts = append(opts, dyncoll.WithTransformation(dyncoll.Amortized))
	case "fastinsert":
		opts = append(opts, dyncoll.WithTransformation(dyncoll.AmortizedFastInsert))
	case "worstcase", "":
		opts = append(opts, dyncoll.WithTransformation(dyncoll.WorstCase))
	default:
		return nil, fmt.Errorf("unknown transformation %q", cfg.transform)
	}
	return opts, nil
}

func runBackend(cfg backendConfig) {
	if cfg.wal != "" && cfg.snapshot != "" {
		log.Fatalf("dyndocd: -wal and -snapshot are mutually exclusive (the WAL directory subsumes drain snapshots)")
	}
	if cfg.mapped && cfg.snapshot == "" {
		log.Fatalf("dyndocd: -mmap needs -snapshot (it selects the snapshot format)")
	}
	if cfg.mapped && cfg.wal != "" {
		log.Fatalf("dyndocd: -mmap and -wal are mutually exclusive (checkpoints use the v1 sectioned codec)")
	}
	opts, err := buildOptions(cfg)
	if err != nil {
		log.Fatalf("dyndocd: %v", err)
	}
	if cfg.wal != "" {
		runDurableBackend(cfg, opts)
		return
	}
	c, err := dyncoll.NewCollection(opts...)
	if err != nil {
		log.Fatalf("dyndocd: %v", err)
	}
	restore := func(dst *dyncoll.Collection, path string) error {
		if cfg.mapped {
			return dst.LoadMappedFile(path)
		}
		return dst.LoadFile(path)
	}
	save := func(src *dyncoll.Collection, path string) error {
		if cfg.mapped {
			return src.SaveMappedFile(path)
		}
		return src.SaveFile(path)
	}
	if cfg.snapshot != "" {
		switch err := restore(c, cfg.snapshot); {
		case err == nil:
			log.Printf("restored snapshot %s: %d document(s), %d symbol(s)", cfg.snapshot, c.DocCount(), c.Len())
		case errors.Is(err, os.ErrNotExist):
			log.Printf("snapshot %s not present yet; starting empty (it will be written on drain)", cfg.snapshot)
		default:
			// A corrupt snapshot must not silently serve an empty corpus.
			log.Fatalf("dyndocd: restore %s: %v", cfg.snapshot, err)
		}
	}
	// Range hosting: a replicated frontend addresses writes/reads to
	// assignment rows (?range=N); each row lives in its own collection.
	b := server.NewBackend(server.PlainColl{Collection: c}).EnableRanges(func(rng int) (server.Coll, error) {
		rc, err := dyncoll.NewCollection(opts...)
		if err != nil {
			return nil, err
		}
		return server.PlainColl{Collection: rc}, nil
	})
	if cfg.snapshot != "" {
		// Row snapshots sit beside the default one as PATH.range<N>.
		matches, _ := filepath.Glob(cfg.snapshot + ".range*")
		for _, m := range matches {
			rng, err := strconv.Atoi(strings.TrimPrefix(m, cfg.snapshot+".range"))
			if err != nil {
				continue
			}
			rc, err := dyncoll.NewCollection(opts...)
			if err != nil {
				log.Fatalf("dyndocd: %v", err)
			}
			if err := restore(rc, m); err != nil {
				log.Fatalf("dyndocd: restore %s: %v", m, err)
			}
			b.SetRange(rng, server.PlainColl{Collection: rc})
			log.Printf("restored range %d snapshot %s: %d document(s)", rng, m, rc.DocCount())
		}
	}
	serveUntilSignal("backend", cfg.listen, b.Handler(), cfg.drainTimeout, func() {
		c.WaitIdle() // background rebuilds land before the state is captured
		if cfg.snapshot == "" {
			return
		}
		if err := save(c, cfg.snapshot); err != nil {
			log.Fatalf("dyndocd: drain snapshot %s: %v", cfg.snapshot, err)
		}
		log.Printf("drain snapshot: %d document(s), %d symbol(s) → %s", c.DocCount(), c.Len(), cfg.snapshot)
		for rng, rcoll := range b.Ranges() {
			rc := rcoll.(server.PlainColl).Collection
			rc.WaitIdle()
			path := fmt.Sprintf("%s.range%d", cfg.snapshot, rng)
			if err := save(rc, path); err != nil {
				log.Fatalf("dyndocd: drain range snapshot %s: %v", path, err)
			}
			log.Printf("drain range %d snapshot: %d document(s) → %s", rng, rc.DocCount(), path)
		}
	})
}

// runDurableBackend serves a WAL-backed collection: recovery happens
// before listening, every acknowledged mutation is fsynced before the
// HTTP reply, and the drain closes the log — though with a WAL a drain
// is a courtesy, not a requirement; kill -9 loses nothing acknowledged.
func runDurableBackend(cfg backendConfig, opts []dyncoll.Option) {
	wopts := dyncoll.WALOptions{
		SyncWindow:      cfg.walSyncWindow,
		CheckpointEvery: cfg.walCheckpoint,
	}
	dc, err := dyncoll.OpenDurableCollection(cfg.wal, wopts, opts...)
	if err != nil {
		log.Fatalf("dyndocd: open durable %s: %v", cfg.wal, err)
	}
	rec := dc.RecoveryStats()
	log.Printf("recovered %s in %v: checkpoint=%v, %d WAL record(s) in %d file(s), torn tail truncated=%v → %d document(s)",
		cfg.wal, rec.Duration.Round(time.Millisecond), rec.CheckpointLoaded,
		rec.WALRecords, rec.WALFiles, rec.TornTailTruncated, dc.DocCount())
	// Range hosting: each assignment row gets its own durable directory
	// (DIR/range-<N>) with a full WAL + checkpoint lifecycle, so a
	// replica's acknowledged writes for every hosted row survive kill -9.
	b := server.NewBackend(dc).EnableRanges(func(rng int) (server.Coll, error) {
		rdir := filepath.Join(cfg.wal, fmt.Sprintf("range-%d", rng))
		rc, err := dyncoll.OpenDurableCollection(rdir, wopts, opts...)
		if err != nil {
			return nil, err
		}
		log.Printf("range %d: opened durable sub-collection in %s", rng, rdir)
		return rc, nil
	})
	entries, _ := os.ReadDir(cfg.wal)
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "range-") {
			continue
		}
		rng, err := strconv.Atoi(strings.TrimPrefix(e.Name(), "range-"))
		if err != nil {
			continue
		}
		rc, err := dyncoll.OpenDurableCollection(filepath.Join(cfg.wal, e.Name()), wopts, opts...)
		if err != nil {
			log.Fatalf("dyndocd: open durable range %d: %v", rng, err)
		}
		b.SetRange(rng, rc)
		log.Printf("recovered range %d: %d document(s)", rng, rc.DocCount())
	}
	serveUntilSignal("backend", cfg.listen, b.Handler(), cfg.drainTimeout, func() {
		drainDurable := func(name string, d *dyncoll.DurableCollection, dir string) {
			d.WaitIdle()
			if err := d.Checkpoint(); err != nil {
				log.Printf("drain checkpoint %s: %v (WAL tail still replays on restart)", name, err)
			}
			if err := d.Close(); err != nil {
				log.Printf("drain close %s: %v", name, err)
			}
			log.Printf("drain: WAL closed, %d document(s) durable in %s", d.DocCount(), dir)
		}
		drainDurable("default", dc, cfg.wal)
		for rng, rcoll := range b.Ranges() {
			name := fmt.Sprintf("range-%d", rng)
			drainDurable(name, rcoll.(*dyncoll.DurableCollection), filepath.Join(cfg.wal, name))
		}
	})
}

type frontendConfig struct {
	listen, backends, assignment string
	replication                  int
	retries, breakerFailures     int
	opTimeout, retryBase         time.Duration
	breakerCooldown, hedge       time.Duration
	drainTimeout                 time.Duration
}

func runFrontend(cfg frontendConfig) {
	var addrs []string
	for _, a := range strings.Split(cfg.backends, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	fc := server.FrontendConfig{
		Backends:    addrs,
		Replication: cfg.replication,
		OpTimeout:   cfg.opTimeout,
		Retry:       server.RetryPolicy{Attempts: cfg.retries, Base: cfg.retryBase},
		Breaker:     server.BreakerConfig{Failures: cfg.breakerFailures, Cooldown: cfg.breakerCooldown},
		HedgeDelay:  cfg.hedge,
	}
	if cfg.assignment != "" {
		data, err := os.ReadFile(cfg.assignment)
		if err != nil {
			log.Fatalf("dyndocd: -assignment: %v", err)
		}
		a, err := shardmap.ParseAssignment(data)
		if err != nil {
			log.Fatalf("dyndocd: -assignment %s: %v", cfg.assignment, err)
		}
		fc.Assignment = &a
	}
	f, err := server.NewFrontendConfig(fc)
	if err != nil {
		log.Fatalf("dyndocd: %v (use -backends=host1:port,host2:port,…)", err)
	}
	asg := f.Assignment()
	log.Printf("routing %d row(s) across %d backend(s), replication %d (assignment v%d): %s",
		asg.Rows(), len(f.Backends()), asg.Replication, asg.Version, strings.Join(f.Backends(), ", "))
	serveUntilSignal("frontend", cfg.listen, f.Handler(), cfg.drainTimeout, nil)
}

// Slow-client bounds, the same for both modes: a client has
// readHeaderTimeout to send its request line and headers, which may
// total at most maxHeaderBytes, and a keep-alive connection is closed
// after idleTimeout without a request. The frontend keeps its idle
// backend connections for 90 s and drops one the backend has closed.
// Response writes are not bounded here.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 10 * time.Second
	maxHeaderBytes    = 64 << 10
)

// newHTTPServer is the server both modes run h on.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// serveUntilSignal runs the HTTP server until SIGTERM/SIGINT, then
// drains: stop accepting, finish in-flight requests (bounded by
// drainTimeout), run the optional onDrained hook (snapshot), exit 0.
func serveUntilSignal(role, listen string, h http.Handler, drainTimeout time.Duration, onDrained func()) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		log.Fatalf("dyndocd: listen %s: %v", listen, err)
	}
	srv := newHTTPServer(h)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("dyndocd %s listening on http://%s", role, ln.Addr())
	select {
	case err := <-errc:
		log.Fatalf("dyndocd: serve: %v", err)
	case <-ctx.Done():
	}
	stop() // second signal: default handling (kill) instead of a stuck drain
	log.Printf("draining: stopped accepting, waiting for in-flight requests (max %v)", drainTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Printf("drain: %v (continuing to snapshot)", err)
	}
	if onDrained != nil {
		onDrained()
	}
	log.Printf("dyndocd %s: drained, exiting 0", role)
}
