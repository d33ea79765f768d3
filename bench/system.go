package main

import (
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"

	"dyncoll"
	"dyncoll/internal/server"
)

// system is one workload's deployment of the library: how its state is
// built, called, measured for space, put on disk and brought back.
type system interface {
	// targets returns one handle per closed-loop client.
	targets() []target
	// colls lists the collections that hold the state, for space and
	// engine statistics (more than one only in the fleet).
	colls() []server.Coll
	// replicas is how many copies of each document colls holds.
	replicas() int
	// settle brings background work to rest at a fixed point: builds
	// land and, where there is a log, a checkpoint is cut.
	settle() error
	// persist makes the files reopen needs and returns their total size
	// and the user bytes they hold.
	persist() (disk, user int64, err error)
	// stop takes the live structure away so that only the files remain;
	// reopen brings it back from them.
	stop() error
	reopen() error
	// close releases everything the system holds.
	close() error
}

// ingest preloads docs in fixed-size batches through one target.
func ingest(t target, docs []dyncoll.Document, batch int) error {
	for i := 0; i < len(docs); i += batch {
		if err := t.Insert(docs[i:min(i+batch, len(docs))]); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

func waitIdle(s system) {
	for _, c := range s.colls() {
		c.WaitIdle()
	}
}

// dirSize sums the regular files under dir.
func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		n += info.Size()
		return err
	})
	return n, err
}

// --- lib_query, lib_churn: a heap Collection and one snapshot file ---

type libSys struct {
	opts   []dyncoll.Option
	mapped bool // v2 SaveMappedFile/OpenMappedCollection instead of v1 SaveFile/LoadFile
	path   string
	c      *dyncoll.Collection
}

func newLibSys(dir string, docs []dyncoll.Document, batch int, mapped bool, opts ...dyncoll.Option) (system, error) {
	c, err := dyncoll.NewCollection(opts...)
	if err != nil {
		return nil, err
	}
	s := &libSys{opts: opts, mapped: mapped, path: filepath.Join(dir, "snapshot"), c: c}
	return s, ingest(s.targets()[0], docs, batch)
}

func (s *libSys) targets() []target    { return []target{collTarget{server.PlainColl{Collection: s.c}}} }
func (s *libSys) colls() []server.Coll { return []server.Coll{server.PlainColl{Collection: s.c}} }

func (s *libSys) replicas() int { return 1 }
func (s *libSys) settle() error { s.c.WaitIdle(); return nil }
func (s *libSys) close() error  { return s.c.Close() } // releases the mapping, if any

func (s *libSys) persist() (int64, int64, error) {
	s.c.WaitIdle()
	var err error
	if s.mapped {
		err = s.c.SaveMappedFile(s.path)
	} else {
		err = s.c.SaveFile(s.path)
	}
	if err != nil {
		return 0, 0, err
	}
	info, err := os.Stat(s.path)
	if err != nil {
		return 0, 0, err
	}
	return info.Size(), int64(s.c.Len()), nil
}

func (s *libSys) stop() error { return s.close() }

func (s *libSys) reopen() (err error) {
	if s.mapped {
		s.c, err = dyncoll.OpenMappedCollection(s.path)
		return err
	}
	if s.c, err = dyncoll.NewCollection(s.opts...); err != nil {
		return err
	}
	return s.c.LoadFile(s.path)
}

// --- durable_restart: a WAL-backed collection in its own directory ---

type durableSys struct {
	dir   string
	wopts dyncoll.WALOptions
	fs    *countFS // nil unless the run is traced
	c     *dyncoll.DurableCollection
}

func newDurableSys(dir string, docs []dyncoll.Document, batch int, checkpointEvery int64, counting bool) (*durableSys, error) {
	s := &durableSys{dir: filepath.Join(dir, "wal")}
	// The zero WALOptions (per-commit fsync, no batching window) except
	// the checkpoint threshold and, in a traced run only, the counting
	// filesystem: the end-to-end numbers are taken on the real one.
	s.wopts = dyncoll.WALOptions{CheckpointEvery: checkpointEvery}
	if counting {
		s.fs = newCountFS()
		s.wopts.FS = s.fs
	}
	var err error
	if s.c, err = dyncoll.OpenDurableCollection(s.dir, s.wopts, dyncoll.WithShards(2)); err != nil {
		return nil, err
	}
	return s, ingest(s.targets()[0], docs, batch)
}

func (s *durableSys) targets() []target    { return []target{collTarget{s.c}} }
func (s *durableSys) colls() []server.Coll { return []server.Coll{s.c} }

func (s *durableSys) replicas() int { return 1 }
func (s *durableSys) close() error  { return s.c.Close() }
func (s *durableSys) stop() error   { return s.c.Close() }

func (s *durableSys) settle() error {
	s.c.WaitIdle()
	return s.c.Checkpoint()
}

// persist has nothing to write: every acknowledged op is already in the
// log or a checkpoint.
func (s *durableSys) persist() (int64, int64, error) {
	s.c.WaitIdle()
	disk, err := dirSize(s.dir)
	return disk, int64(s.c.Len()), err
}

func (s *durableSys) reopen() (err error) {
	s.c, err = dyncoll.OpenDurableCollection(s.dir, s.wopts)
	return err
}

// --- fleet_mixed: two backends and a replicating frontend on loopback ---

// node is one HTTP server on a real loopback listener.
type node struct {
	srv  *http.Server
	addr string
	done chan error
}

// serve starts h on addr ("127.0.0.1:0" picks a port) and counts the
// connections it accepts into conns.
func serve(addr string, h http.Handler, conns *atomic.Int64) (*node, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	n := &node{addr: ln.Addr().String(), done: make(chan error, 1)}
	n.srv = &http.Server{Handler: h, ConnState: func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}}
	go func() { n.done <- n.srv.Serve(ln) }()
	return n, nil
}

// close stops the server and waits for its accept loop to end; closing
// a closed node does nothing.
func (n *node) close() error {
	if n == nil || n.srv == nil {
		return nil
	}
	err := n.srv.Close()
	if serr := <-n.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	n.srv = nil
	return err
}

type fleetSys struct {
	dir      string
	clients  int
	backends [2]*server.Backend
	nodes    [2]*node
	front    *server.Frontend
	fnode    *node
	conns    atomic.Int64
}

func rowColl() (server.Coll, error) {
	c, err := dyncoll.NewCollection(dyncoll.WithShards(2))
	if err != nil {
		return nil, err
	}
	return server.PlainColl{Collection: c}, nil
}

func newBackend() (*server.Backend, error) {
	def, err := rowColl()
	if err != nil {
		return nil, err
	}
	return server.NewBackend(def).EnableRanges(func(int) (server.Coll, error) { return rowColl() }), nil
}

func newFleetSys(dir string, docs []dyncoll.Document, batch, clients int) (*fleetSys, error) {
	s := &fleetSys{dir: dir, clients: clients}
	var addrs []string
	for i := range s.backends {
		var err error
		if s.backends[i], err = newBackend(); err != nil {
			return s, err
		}
		if s.nodes[i], err = serve("127.0.0.1:0", s.backends[i].Handler(), &s.conns); err != nil {
			return s, err
		}
		addrs = append(addrs, s.nodes[i].addr)
	}
	var err error
	if s.front, err = server.NewFrontendConfig(server.FrontendConfig{Backends: addrs, Replication: 2}); err != nil {
		return s, err
	}
	if s.fnode, err = serve("127.0.0.1:0", s.front.Handler(), &s.conns); err != nil {
		return s, err
	}
	return s, ingest(newHTTPTarget("http://"+s.fnode.addr), docs, batch)
}

func (s *fleetSys) targets() []target {
	ts := make([]target, s.clients)
	for i := range ts {
		ts[i] = newHTTPTarget("http://" + s.fnode.addr)
	}
	return ts
}

func (s *fleetSys) colls() []server.Coll {
	var out []server.Coll
	for _, b := range s.backends {
		if b == nil {
			continue
		}
		rows := b.Ranges()
		for r := range len(rows) {
			out = append(out, rows[r])
		}
	}
	return out
}

func (s *fleetSys) rowPath(r int) string {
	return filepath.Join(s.dir, fmt.Sprintf("backend1.range%d", r))
}

// persist drains backend 1: every row it hosts goes to its own v1 file.
func (s *fleetSys) persist() (disk, user int64, err error) {
	for r, c := range s.backends[1].Ranges() {
		c.WaitIdle()
		if err := c.(server.PlainColl).SaveFile(s.rowPath(r)); err != nil {
			return 0, 0, err
		}
		info, err := os.Stat(s.rowPath(r))
		if err != nil {
			return 0, 0, err
		}
		disk += info.Size()
		user += int64(c.Len())
	}
	return disk, user, nil
}

// stop takes backend 1 down; the frontend and backend 0 keep running.
func (s *fleetSys) stop() error {
	s.backends[1] = nil
	return s.nodes[1].close()
}

// reopen rebuilds backend 1 from its row files and puts it back on the
// address the frontend knows.
func (s *fleetSys) reopen() error {
	b, err := newBackend()
	if err != nil {
		return err
	}
	for r := range s.front.Assignment().Rows() {
		c, err := dyncoll.NewCollection(dyncoll.WithShards(2))
		if err != nil {
			return err
		}
		if err := c.LoadFile(s.rowPath(r)); err != nil {
			return err
		}
		b.SetRange(r, server.PlainColl{Collection: c})
	}
	s.backends[1] = b
	s.nodes[1], err = serve(s.nodes[1].addr, b.Handler(), &s.conns)
	return err
}

func (s *fleetSys) replicas() int { return 2 }
func (s *fleetSys) settle() error { waitIdle(s); return nil }

// close stops every server of the fleet.
func (s *fleetSys) close() error {
	return errors.Join(s.fnode.close(), s.nodes[0].close(), s.nodes[1].close())
}
