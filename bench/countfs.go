package main

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"dyncoll/internal/wal"
)

// countFS wraps the real filesystem the durable layer writes through and
// counts what reaches it: write calls, bytes and fsyncs, split into the
// log (wal-* files) and everything else (checkpoint spines and segments,
// manifests). With one client the log-side counts repeat exactly for a
// seed. A manifest rename marks a completed checkpoint; the wall time
// from the first checkpoint write to that rename is its duration.
type countFS struct {
	wal.FS

	mu          sync.Mutex
	walWrites   int64
	walBytes    int64
	walSyncs    int64
	ckptBytes   int64
	checkpoints int64
	ckptStart   time.Time // first non-log write since the last manifest rename
	ckptNanos   []float64 // duration of each completed checkpoint
}

func newCountFS() *countFS { return &countFS{FS: wal.OS} }

func isLog(name string) bool { return strings.HasPrefix(filepath.Base(name), "wal-") }

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c, log: isLog(name)}, nil
}

func (c *countFS) Rename(oldpath, newpath string) error {
	err := c.FS.Rename(oldpath, newpath)
	if err == nil && filepath.Base(newpath) == wal.ManifestName {
		c.mu.Lock()
		c.checkpoints++
		if !c.ckptStart.IsZero() {
			c.ckptNanos = append(c.ckptNanos, float64(time.Since(c.ckptStart)))
			c.ckptStart = time.Time{}
		}
		c.mu.Unlock()
	}
	return err
}

// counts is a copy of the counters, for taking differences.
type counts struct {
	walWrites, walBytes, walSyncs, ckptBytes, checkpoints int64
}

func (c *countFS) snapshot() counts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return counts{c.walWrites, c.walBytes, c.walSyncs, c.ckptBytes, c.checkpoints}
}

type countFile struct {
	wal.File
	fs  *countFS
	log bool
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	if f.log {
		f.fs.walWrites++
		f.fs.walBytes += int64(n)
	} else {
		if f.fs.ckptStart.IsZero() {
			f.fs.ckptStart = time.Now()
		}
		f.fs.ckptBytes += int64(n)
	}
	f.fs.mu.Unlock()
	return n, err
}

func (f *countFile) Sync() error {
	f.fs.mu.Lock()
	if f.log {
		f.fs.walSyncs++
	}
	f.fs.mu.Unlock()
	return f.File.Sync()
}
