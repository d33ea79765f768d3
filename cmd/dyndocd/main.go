// Command dyndocd serves the dynamic document collection over
// HTTP/JSON (stdlib only — no dependencies). It runs in one of two
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
//	                acknowledged. Each assignment row a frontend names
//	                (?range=N) is a collection of its own, persisted at
//	                PATH.range<N> or DIR/range-<N>; the default
//	                collection serves direct clients.
//	-mode=frontend  stateless query router over -backends=h1,h2,…:
//	                keyed ops proxy to the replica set owning the
//	                document (one assignment row per backend, each held
//	                by -replication R backends), un-routable queries fan
//	                out one request per group of rows a live backend
//	                hosts, and the NDJSON streams merge with propagated
//	                early break. Every backend call carries a deadline (-op-timeout), reads
//	                retry with backoff (-retries, -retry-base) and hedge
//	                against slow replicas (-hedge), and per-backend
//	                circuit breakers (-breaker-failures,
//	                -breaker-cooldown) gate routing; /readyz reports
//	                degraded fleets.
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
)

func main() {
	var (
		mode     = flag.String("mode", "backend", "backend | frontend")
		listen   = flag.String("listen", "127.0.0.1:7080", "listen address (backend, frontend)")
		snapshot = flag.String("snapshot", "", "snapshot path: restored before listening if present, written on drain (backend)")
		mapped   = flag.Bool("mmap", false, "use the v2 mapped snapshot format for -snapshot: O(1) restore, queries served from the page cache (backend)")
		backends = flag.String("backends", "", "comma-separated backend addresses (frontend)")
		drainFor = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown")

		// Fault tolerance (frontend).
		replication = flag.Int("replication", 1, "replica count R per assignment row; writes reach all R, reads any live one (frontend)")
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
		index     = flag.String("index", dyncoll.IndexFMM, "static index by registry name: fmm | fmp | fmz | fm4 | fm | sa | csa (backend)")
		sample    = flag.Int("s", 16, "suffix-array sample rate s (backend)")
		tau       = flag.Int("tau", 0, "lazy-deletion parameter τ, 0 = automatic (backend)")
		shards    = flag.Int("shards", 1, "shard count p ≥ 1; the server requires the concurrency-safe sharded collection (backend)")
		counting  = flag.Bool("counting", false, "enable Theorem 1 counting structures (backend)")
		transform = flag.String("transform", "", "transformation: amortized | worstcase | fastinsert (backend; default worstcase)")
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
			replication: *replication,
			opTimeout:   *opTimeout, retries: *retries, retryBase: *retryBase,
			breakerFailures: *brkFailures, breakerCooldown: *brkCooldown,
			hedge: *hedge,
		})
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q (backend | frontend)\n", *mode)
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
	b, drain, err := buildBackend(cfg)
	if err != nil {
		log.Fatalf("dyndocd: %v", err)
	}
	serveUntilSignal("backend", cfg.listen, b.Handler(), cfg.drainTimeout, drain)
}

// rowStore is what the persistence modes do differently. Besides its
// default collection, a backend hosts one collection per assignment row
// a frontend addresses (?range=N); row N lives at prefix+N.
type rowStore struct {
	home   string // the default collection's file or directory; "" keeps it in memory
	prefix string // "" keeps rows in memory
	// open restores the collection at path if it is there, else
	// creates it, and logs which it did.
	open func(path string) (server.Coll, error)
	// drain quiesces the collection and makes it durable at path.
	drain func(c server.Coll, path string)
}

// path is where row rng lives.
func (rs rowStore) path(rng int) string {
	if rs.prefix == "" {
		return ""
	}
	return rs.prefix + strconv.Itoa(rng)
}

// buildBackend opens the default collection and every row already on
// disk, and returns the backend serving them with the drain that
// persists them all. A row first written later is opened beside them.
func buildBackend(cfg backendConfig) (*server.Backend, func(), error) {
	switch {
	case cfg.wal != "" && cfg.snapshot != "":
		return nil, nil, errors.New("-wal and -snapshot are mutually exclusive (the WAL directory subsumes drain snapshots)")
	case cfg.mapped && cfg.snapshot == "":
		return nil, nil, errors.New("-mmap needs -snapshot (it selects the snapshot format)")
	case cfg.mapped && cfg.wal != "":
		return nil, nil, errors.New("-mmap and -wal are mutually exclusive (checkpoints use the v1 sectioned codec)")
	}
	opts, err := buildOptions(cfg)
	if err != nil {
		return nil, nil, err
	}
	rs := snapshotRows(cfg, opts)
	if cfg.wal != "" {
		rs = durableRows(cfg, opts)
	}
	def, err := rs.open(rs.home)
	if err != nil {
		return nil, nil, err
	}
	b := server.NewBackend(def).EnableRanges(func(rng int) (server.Coll, error) {
		return rs.open(rs.path(rng))
	})
	for _, rng := range hostedRows(rs.prefix) {
		c, err := rs.open(rs.path(rng))
		if err != nil {
			return nil, nil, err
		}
		b.SetRange(rng, c)
	}
	drain := func() {
		rs.drain(def, rs.home)
		for rng, c := range b.Ranges() {
			rs.drain(c, rs.path(rng))
		}
	}
	return b, drain, nil
}

// hostedRows lists the rows on disk: the entries named prefix<N>.
func hostedRows(prefix string) []int {
	if prefix == "" {
		return nil
	}
	entries, _ := os.ReadDir(filepath.Dir(prefix))
	base := filepath.Base(prefix)
	var rows []int
	for _, e := range entries {
		name, ok := strings.CutPrefix(e.Name(), base)
		if rng, err := strconv.Atoi(name); ok && err == nil {
			rows = append(rows, rng)
		}
	}
	return rows
}

// snapshotRows keeps collections in memory and, with -snapshot=PATH,
// restores them from PATH and PATH.range<N> at boot and writes them
// there on drain, in the v2 mapped format under -mmap.
func snapshotRows(cfg backendConfig, opts []dyncoll.Option) rowStore {
	load, save := (*dyncoll.Collection).LoadFile, (*dyncoll.Collection).SaveFile
	if cfg.mapped {
		load = func(c *dyncoll.Collection, path string) error { return c.LoadMappedFile(path) }
		save = (*dyncoll.Collection).SaveMappedFile
	}
	rs := rowStore{home: cfg.snapshot}
	if cfg.snapshot != "" {
		rs.prefix = cfg.snapshot + ".range"
	}
	rs.open = func(path string) (server.Coll, error) {
		c, err := dyncoll.NewCollection(opts...)
		if err != nil {
			return nil, err
		}
		if path == "" {
			return server.PlainColl{Collection: c}, nil
		}
		switch err := load(c, path); {
		case err == nil:
			log.Printf("restored snapshot %s: %d document(s), %d symbol(s)", path, c.DocCount(), c.Len())
		case errors.Is(err, os.ErrNotExist):
			log.Printf("snapshot %s not present yet; starting empty (it will be written on drain)", path)
		default:
			// A corrupt snapshot must not silently serve an empty corpus.
			return nil, fmt.Errorf("restore %s: %w", path, err)
		}
		return server.PlainColl{Collection: c}, nil
	}
	rs.drain = func(coll server.Coll, path string) {
		c := coll.(server.PlainColl).Collection
		c.WaitIdle() // background rebuilds land before the state is captured
		if path == "" {
			return
		}
		if err := save(c, path); err != nil {
			log.Fatalf("dyndocd: drain snapshot %s: %v", path, err)
		}
		log.Printf("drain snapshot: %d document(s), %d symbol(s) → %s", c.DocCount(), c.Len(), path)
	}
	return rs
}

// durableRows keeps every collection in a WAL directory, -wal=DIR for
// the default one and DIR/range-<N> per row, each with its own log and
// checkpoints, so a replica's acknowledged writes for every row it
// hosts survive kill -9. The drain checkpoints and closes the logs —
// with a WAL a courtesy, not a requirement.
func durableRows(cfg backendConfig, opts []dyncoll.Option) rowStore {
	wopts := dyncoll.WALOptions{
		SyncWindow:      cfg.walSyncWindow,
		CheckpointEvery: cfg.walCheckpoint,
	}
	return rowStore{
		home:   cfg.wal,
		prefix: filepath.Join(cfg.wal, "range-"),
		open: func(dir string) (server.Coll, error) {
			dc, err := dyncoll.OpenDurableCollection(dir, wopts, opts...)
			if err != nil {
				return nil, fmt.Errorf("open durable %s: %w", dir, err)
			}
			rec := dc.RecoveryStats()
			log.Printf("recovered %s in %v: checkpoint=%v, %d WAL record(s) in %d file(s), torn tail truncated=%v → %d document(s)",
				dir, rec.Duration.Round(time.Millisecond), rec.CheckpointLoaded,
				rec.WALRecords, rec.WALFiles, rec.TornTailTruncated, dc.DocCount())
			return dc, nil
		},
		drain: func(c server.Coll, dir string) {
			d := c.(*dyncoll.DurableCollection)
			d.WaitIdle()
			if err := d.Checkpoint(); err != nil {
				log.Printf("drain checkpoint %s: %v (WAL tail still replays on restart)", dir, err)
			}
			if err := d.Close(); err != nil {
				log.Printf("drain close %s: %v", dir, err)
			}
			log.Printf("drain: WAL closed, %d document(s) durable in %s", d.DocCount(), dir)
		},
	}
}

type frontendConfig struct {
	listen, backends         string
	replication              int
	retries, breakerFailures int
	opTimeout, retryBase     time.Duration
	breakerCooldown, hedge   time.Duration
	drainTimeout             time.Duration
}

func runFrontend(cfg frontendConfig) {
	var addrs []string
	for _, a := range strings.Split(cfg.backends, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	f, err := server.NewFrontendConfig(server.FrontendConfig{
		Backends:    addrs,
		Replication: cfg.replication,
		OpTimeout:   cfg.opTimeout,
		Retry:       server.RetryPolicy{Attempts: cfg.retries, Base: cfg.retryBase},
		Breaker:     server.BreakerConfig{Failures: cfg.breakerFailures, Cooldown: cfg.breakerCooldown},
		HedgeDelay:  cfg.hedge,
	})
	if err != nil {
		log.Fatalf("dyndocd: %v (use -backends=host1:port,host2:port,…)", err)
	}
	asg := f.Assignment()
	log.Printf("routing %d row(s) across %d backend(s), replication %d: %s",
		asg.Rows(), len(f.Backends()), asg.Replication, strings.Join(f.Backends(), ", "))
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
