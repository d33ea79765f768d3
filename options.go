package dyncoll

import "fmt"

// structKind tags which structure a config is being assembled for, so
// options can reject targets they do not apply to.
type structKind int

const (
	kindCollection structKind = iota
	kindRelation
	kindGraph
)

func (k structKind) String() string {
	switch k {
	case kindRelation:
		return "Relation"
	case kindGraph:
		return "Graph"
	default:
		return "Collection"
	}
}

// config is the resolved option set shared by all three structures.
type config struct {
	kind structKind

	transformation Transformation
	index          string
	sampleRate     int
	tau            int
	epsilon        float64
	minCapacity    int
	counting       bool
	syncRebuilds   bool
	shards         int
}

// Option configures NewCollection, NewRelation, or NewGraph. Options are
// applied in order; an option that does not apply to the structure being
// built (e.g. WithIndex on a Relation) fails the constructor with
// ErrInvalidOption rather than being silently ignored.
type Option func(*config) error

// WithTransformation picks the update-cost regime: WorstCase (the
// default — Transformation 2, bounded foreground work per update),
// Amortized (Transformation 1), or AmortizedFastInsert (Transformation
// 3, Collection only).
func WithTransformation(t Transformation) Option {
	return func(c *config) error {
		switch t {
		case WorstCase, Amortized:
		case AmortizedFastInsert:
			if c.kind != kindCollection {
				return fmt.Errorf("dyncoll: %w: AmortizedFastInsert applies only to Collection, not %v", ErrInvalidOption, c.kind)
			}
		default:
			return fmt.Errorf("dyncoll: %w: unknown Transformation %d", ErrInvalidOption, int(t))
		}
		c.transformation = t
		return nil
	}
}

// WithIndex selects the static index backing a Collection by registry
// name — a built-in (IndexFMM, the default; IndexFMP, IndexFMZ, IndexFM4, IndexFM, IndexSA, IndexCSA)
// or anything added via RegisterIndex. The name is resolved when the collection is created.
func WithIndex(name string) Option {
	return func(c *config) error {
		if c.kind != kindCollection {
			return fmt.Errorf("dyncoll: %w: WithIndex applies only to Collection, not %v", ErrInvalidOption, c.kind)
		}
		c.index = name
		return nil
	}
}

// WithSampleRate sets the suffix-array sampling rate s handed to the
// index builder: locate costs O(s), the samples cost O(n/s·log n) bits.
// Collection only.
func WithSampleRate(s int) Option {
	return func(c *config) error {
		if c.kind != kindCollection {
			return fmt.Errorf("dyncoll: %w: WithSampleRate applies only to Collection, not %v", ErrInvalidOption, c.kind)
		}
		if s < 0 {
			return fmt.Errorf("dyncoll: %w: negative sample rate %d", ErrInvalidOption, s)
		}
		c.sampleRate = s
		return nil
	}
}

// WithTau sets the paper's lazy-deletion parameter τ: a sub-collection
// is purged once a 1/τ fraction of it is dead, so a larger τ keeps less
// dead data and rebuilds more often. The deletion bookkeeping does not
// depend on τ: about one bit per indexed symbol of a sub-collection that
// has a deletion, 1.5 with WithCounting. 0 (the default) derives
// τ = log n / log log n automatically at global rebuilds.
func WithTau(tau int) Option {
	return func(c *config) error {
		if tau < 0 {
			return fmt.Errorf("dyncoll: %w: negative tau %d", ErrInvalidOption, tau)
		}
		c.tau = tau
		return nil
	}
}

// WithEpsilon sets the geometric growth exponent ε of sub-collection
// capacities, trading insertion cost O(u·logᵋ n) against the number of
// ladder levels ⌈2/ε⌉. Must be in (0, 1]. Default 0.5.
func WithEpsilon(e float64) Option {
	return func(c *config) error {
		if e <= 0 || e > 1 {
			return fmt.Errorf("dyncoll: %w: epsilon %v outside (0, 1]", ErrInvalidOption, e)
		}
		c.epsilon = e
		return nil
	}
}

// WithMinCapacity bounds the uncompressed C0 capacity from below so
// small structures behave sensibly. Default 64.
func WithMinCapacity(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("dyncoll: %w: negative min capacity %d", ErrInvalidOption, n)
		}
		c.minCapacity = n
		return nil
	}
}

// WithCounting attaches Theorem 1's rank structure to each store's
// deletion bitmap, so Collection.Count counts a store's live matches in
// O(log n) instead of popcounting the bitmap over the match range, one
// word per 64 rows. A store with no deletions has no bitmap and answers
// from the range either way. It costs half a bit per row once a store
// has a deletion, and O(log n) more per deleted symbol. Collection only.
func WithCounting() Option {
	return func(c *config) error {
		if c.kind != kindCollection {
			return fmt.Errorf("dyncoll: %w: WithCounting applies only to Collection, not %v", ErrInvalidOption, c.kind)
		}
		c.counting = true
		return nil
	}
}

// WithShards partitions the structure across p independent sub-structures
// ("shards") keyed by a hash of the document ID (Collection), the object
// (Relation), or the edge source (Graph). Each shard has its own
// rebuild pipeline and its own sync.RWMutex, which makes the structure
// safe for concurrent readers and writers; queries that cannot be routed
// to a single shard (Find, Count, ObjectsOf, Predecessors, …) fan out
// across all shards in parallel goroutines and merge into the usual
// streaming iterators.
//
// p must be ≥ 1. WithShards(1) keeps a single partition but still wraps
// it in the concurrency-safe locking layer; omitting the option entirely
// gives the unsharded v1-compatible structure, which callers must
// serialize externally.
func WithShards(p int) Option {
	return func(c *config) error {
		if p < 1 {
			return fmt.Errorf("dyncoll: %w: shard count %d (need ≥ 1)", ErrInvalidOption, p)
		}
		c.shards = p
		return nil
	}
}

// WithSyncRebuilds forces WorstCase background rebuilds to complete
// synchronously — deterministic behaviour for tests and reproducible
// benchmarks. Under WithShards each shard applies the setting to its own
// rebuild pipeline, so a sharded collection remains deterministic
// per-shard while queries still fan out concurrently. A no-op under the
// amortized transformations.
func WithSyncRebuilds() Option {
	return func(c *config) error {
		c.syncRebuilds = true
		return nil
	}
}

// newConfig applies opts over the defaults for the given structure.
func newConfig(kind structKind, opts []Option) (config, error) {
	c := config{kind: kind, transformation: WorstCase, index: IndexFMM}
	if kind != kindCollection {
		// Relations and graphs default to the amortized cascades; their
		// worst-case machinery is opt-in via WithTransformation.
		c.transformation = Amortized
	}
	for _, o := range opts {
		if err := o(&c); err != nil {
			return config{}, err
		}
	}
	return c, nil
}
