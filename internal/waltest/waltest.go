// Package waltest is the crash-kill harness for the durable facades:
// a child process ingests one of internal/oracle's seeded op streams
// into a durable structure — acknowledging each committed operation on
// stdout — and the parent SIGKILLs it at a random instant, reopens the
// directory, and verifies that the recovered state is exactly the
// stream's prefix up to some point at or past the last acknowledged
// operation, answering as the oracle's model of that prefix does. Both
// sides regenerate the stream from the seed, so nothing about the
// workload needs to survive the kill except the durable directory
// itself.
package waltest

import (
	"fmt"
	"time"

	"dyncoll"
	"dyncoll/internal/oracle"
)

// Kinds and transformations covered by the harness matrix.
const (
	KindCollection = "collection"
	KindRelation   = "relation"
	KindGraph      = "graph"
)

// ChildConfig tells the child process what to ingest; it travels as
// JSON in the WALTEST_CHILD environment variable.
type ChildConfig struct {
	Dir       string
	Kind      string
	Tr        int // int(dyncoll.Transformation)
	Shards    int
	Seed      int64
	Ops       int
	CkptEvery int // explicit Checkpoint every this many ops; 0 = never
}

const minCapacity = 16

// Options returns the structure options for a config.
func (c ChildConfig) Options() []dyncoll.Option {
	opts := []dyncoll.Option{
		dyncoll.WithTransformation(dyncoll.Transformation(c.Tr)),
		dyncoll.WithMinCapacity(minCapacity),
	}
	if c.Shards > 0 {
		opts = append(opts, dyncoll.WithShards(c.Shards))
	}
	return opts
}

// Stream returns the config's op stream, which depends on the seed
// alone: the oracle's document stream for a collection (aimed at the
// C0 capacity Options sets), its pair stream for a relation or graph.
func (c ChildConfig) Stream() ([]oracle.DocOp, []oracle.PairOp) {
	if c.Kind == KindCollection {
		return oracle.DocStream(c.Seed, c.Ops, minCapacity), nil
	}
	return nil, oracle.PairStream(c.Seed, c.Ops)
}

// durableTarget is what the child mutates and checkpoints, whatever
// the kind.
type durableTarget interface {
	Checkpoint() error
	Close() error
}

// applyDurable applies op i of the stream to the durable structure; the
// ack contract is the library's — when this returns nil the op is
// fsynced.
func applyDurable(target durableTarget, docs []oracle.DocOp, pairs []oracle.PairOp, i int) error {
	var add, del func(a, b uint64) error
	switch t := target.(type) {
	case *dyncoll.DurableCollection:
		if len(docs[i].Insert) > 0 {
			return t.InsertBatch(docs[i].Insert)
		}
		_, err := t.DeleteBatch(docs[i].Delete)
		return err
	case *dyncoll.DurableRelation:
		add, del = t.Add, t.Delete
	case *dyncoll.DurableGraph:
		add, del = t.AddEdge, t.DeleteEdge
	}
	if op := pairs[i]; op.Del {
		return del(op.A, op.B)
	}
	return add(pairs[i].A, pairs[i].B)
}

// openDurable opens the config's structure kind in its directory.
func openDurable(cfg ChildConfig, wopts dyncoll.WALOptions) (durableTarget, error) {
	switch cfg.Kind {
	case KindCollection:
		return dyncoll.OpenDurableCollection(cfg.Dir, wopts, cfg.Options()...)
	case KindRelation:
		return dyncoll.OpenDurableRelation(cfg.Dir, wopts, cfg.Options()...)
	case KindGraph:
		return dyncoll.OpenDurableGraph(cfg.Dir, wopts, cfg.Options()...)
	default:
		return nil, fmt.Errorf("waltest: unknown kind %q", cfg.Kind)
	}
}

// RunChild is the child side: ingest the whole op stream, writing
// "ack <k>" after operation k (1-based) is durable and "ckpt <k>"
// after an explicit checkpoint at k commits. The parent usually kills
// the process long before this returns.
func RunChild(cfg ChildConfig, printf func(format string, args ...any)) error {
	wopts := dyncoll.WALOptions{SyncWindow: 500 * time.Microsecond, CheckpointEvery: -1}
	target, err := openDurable(cfg, wopts)
	if err != nil {
		return err
	}
	docs, pairs := cfg.Stream()
	for i := range cfg.Ops {
		if err := applyDurable(target, docs, pairs, i); err != nil {
			return fmt.Errorf("op %d: %w", i+1, err)
		}
		printf("ack %d\n", i+1)
		if cfg.CkptEvery > 0 && (i+1)%cfg.CkptEvery == 0 {
			if err := target.Checkpoint(); err != nil {
				return fmt.Errorf("checkpoint at %d: %w", i+1, err)
			}
			printf("ckpt %d\n", i+1)
		}
	}
	return target.Close()
}
