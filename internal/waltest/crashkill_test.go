package waltest

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dyncoll"
	"dyncoll/internal/oracle"
)

// TestCrashKillChild is the re-exec target, not a test: the parent
// spawns the test binary with -test.run pinned here and the config in
// WALTEST_CHILD. Without the variable it skips immediately.
func TestCrashKillChild(t *testing.T) {
	raw := os.Getenv("WALTEST_CHILD")
	if raw == "" {
		t.Skip("crash-kill harness child; run via TestCrashKillRecovery")
	}
	var cfg ChildConfig
	if err := json.Unmarshal([]byte(raw), &cfg); err != nil {
		t.Fatalf("bad WALTEST_CHILD: %v", err)
	}
	if err := RunChild(cfg, func(format string, args ...any) {
		fmt.Fprintf(os.Stdout, format, args...)
	}); err != nil {
		t.Fatalf("child: %v", err)
	}
}

// ackLog collects the child's acknowledgment stream.
type ackLog struct {
	mu       sync.Mutex
	acked    int // highest "ack k" seen
	ckpt     int // highest "ckpt k" seen
	reached  chan struct{}
	target   int
	signaled bool
}

func (a *ackLog) note(kind string, k int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch kind {
	case "ack":
		if k > a.acked {
			a.acked = k
		}
	case "ckpt":
		if k > a.ckpt {
			a.ckpt = k
		}
	}
	if !a.signaled && a.acked >= a.target {
		a.signaled = true
		close(a.reached)
	}
}

func (a *ackLog) snapshot() (acked, ckpt int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.acked, a.ckpt
}

// killOnce spawns one child, kills it once `target` ops are
// acknowledged (or lets it finish), and returns the final ack state.
func killOnce(t *testing.T, cfg ChildConfig, target int) (acked, ckpt int) {
	t.Helper()
	js, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashKillChild$", "-test.count=1")
	cmd.Env = append(os.Environ(), "WALTEST_CHILD="+string(js))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	log := &ackLog{reached: make(chan struct{}), target: target}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) != 2 {
				continue
			}
			if k, err := strconv.Atoi(fields[1]); err == nil {
				log.note(fields[0], k)
			}
		}
	}()
	killed := false
	select {
	case <-log.reached:
		killed = true
		cmd.Process.Kill()
	case <-done: // child finished (or died) before the target
	case <-time.After(30 * time.Second):
		killed = true
		cmd.Process.Kill()
		t.Errorf("child hung; killed after timeout")
	}
	werr := cmd.Wait()
	<-done
	if !killed && werr != nil {
		t.Fatalf("child failed on its own: %v\nstderr: %s", werr, stderr.String())
	}
	return log.snapshot()
}

// verifyRecovered reopens the killed child's directory and checks that
// the recovered state equals the oracle's model of the stream's prefix
// at some point m ≥ the last acknowledged op, that the structure answers
// every question as the model of that prefix does, and that recovery
// after an acknowledged checkpoint loaded it and replayed only the tail.
func verifyRecovered(t *testing.T, cfg ChildConfig, acked, ckpt int) {
	t.Helper()
	target, err := openDurable(cfg, dyncoll.WALOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("reopen after kill (acked %d): %v", acked, err)
	}
	defer target.Close()

	docs, pairs := cfg.Stream()
	var dm oracle.Model
	var pm oracle.PairModel
	var rec dyncoll.RecoveryStats
	var same func() bool // the recovered set is the model's
	var check func() error
	switch s := target.(type) {
	case *dyncoll.DurableCollection:
		rec = s.RecoveryStats()
		got := slices.Sorted(slices.Values(s.DocIDs()))
		same = func() bool { return slices.Equal(got, dm.DocIDs()) }
		check = func() error { return oracle.CheckDocs[dyncoll.Occurrence](&dm, s.Collection) }
	case *dyncoll.DurableRelation:
		rec = s.RecoveryStats()
		got := sortedPairs(s.Pairs())
		same = func() bool { return slices.Equal(got, pm.Pairs()) }
		check = func() error { return oracle.CheckPairs(&pm, s.Relation) }
	case *dyncoll.DurableGraph:
		rec = s.RecoveryStats()
		got := sortedPairs(s.Edges())
		same = func() bool { return slices.Equal(got, pm.Pairs()) }
		check = func() error { return oracle.CheckPairs(&pm, graphReader{s.Graph}) }
	}
	m := -1
	for k := 0; k <= cfg.Ops; k++ {
		if k > 0 && docs != nil {
			dm.Apply(docs[k-1])
		} else if k > 0 {
			pm.Apply(pairs[k-1])
		}
		if k >= acked && same() {
			m = k
			break
		}
	}
	if m < 0 {
		t.Fatalf("recovered state matches no prefix ≥ acked %d", acked)
	}
	if err := check(); err != nil {
		t.Fatalf("recovered at prefix %d: %v", m, err)
	}

	// An acknowledged checkpoint is durable: recovery must have loaded
	// one and replayed only the operations after it — never the full
	// history.
	if ckpt > 0 {
		if !rec.CheckpointLoaded {
			t.Errorf("checkpoint acked at op %d but recovery loaded none (stats %+v)", ckpt, rec)
		}
		if rec.WALRecords > m-ckpt {
			t.Errorf("recovery replayed %d WAL records; tail after the op-%d checkpoint is at most %d",
				rec.WALRecords, ckpt, m-ckpt)
		}
	}
}

// sortedPairs lists a relation's or graph's pairs in the model's order.
func sortedPairs(ps []dyncoll.Pair) [][2]uint64 {
	out := make([][2]uint64, len(ps))
	for i, p := range ps {
		out[i] = [2]uint64{p.Object, p.Label}
	}
	slices.SortFunc(out, func(a, b [2]uint64) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	return out
}

// graphReader asks a graph the oracle's pair questions under its edge
// names.
type graphReader struct{ *dyncoll.Graph }

func (g graphReader) Related(u, v uint64) bool  { return g.HasEdge(u, v) }
func (g graphReader) Labels(u uint64) []uint64  { return g.Neighbors(u) }
func (g graphReader) Objects(v uint64) []uint64 { return g.ReverseNeighbors(v) }
func (g graphReader) CountLabels(u uint64) int  { return g.OutDegree(u) }
func (g graphReader) CountObjects(v uint64) int { return g.InDegree(v) }
func (g graphReader) Len() int                  { return g.EdgeCount() }

// TestCrashKillRecovery is the acceptance matrix: three structures ×
// two transformations × {unsharded, 4 shards}, each killed at
// WALTEST_KILLS random points (default 3; CI raises it).
func TestCrashKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	kills := 3
	if v := os.Getenv("WALTEST_KILLS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("WALTEST_KILLS=%q: %v", v, err)
		}
		kills = n
	}
	const ops = 80
	for _, kind := range []string{KindCollection, KindRelation, KindGraph} {
		for _, tr := range []dyncoll.Transformation{dyncoll.Amortized, dyncoll.WorstCase} {
			for _, shards := range []int{0, 4} {
				kind, tr, shards := kind, tr, shards
				t.Run(fmt.Sprintf("%s/tr%d/shards%d", kind, tr, shards), func(t *testing.T) {
					t.Parallel()
					rng := rand.New(rand.NewSource(int64(len(kind))*1000 + int64(tr)*100 + int64(shards)))
					for i := 0; i < kills; i++ {
						cfg := ChildConfig{
							Dir:       t.TempDir(),
							Kind:      kind,
							Tr:        int(tr),
							Shards:    shards,
							Seed:      rng.Int63(),
							Ops:       ops,
							CkptEvery: 25,
						}
						// Half the kills aim early (before the first
						// checkpoint), half anywhere in the stream.
						target := 1 + rng.Intn(ops)
						if i%2 == 0 {
							target = 1 + rng.Intn(24)
						}
						acked, ckpt := killOnce(t, cfg, target)
						verifyRecovered(t, cfg, acked, ckpt)
					}
				})
			}
		}
	}
}
