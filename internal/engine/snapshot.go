package engine

import "dyncoll/internal/snap"

// Ladder snapshot hooks. A Dump captures a quiesced ladder's structure
// — the raw C0 items plus every static store tagged with its slot — in
// a form a payload adapter can serialize: the engine knows the shape of
// the ladder, the adapter knows how to encode items and stores.
// Restore is the inverse: the adapter decodes items and stores and the
// engine reinstalls them, rebuilding the owner map. Together they make
// persistence a payload-level concern with one engine-level contract,
// the same split as queries (View/ViewOwner).

// StoreDump tags one static store with its ladder position.
type StoreDump[K comparable, I any] struct {
	// Level is the ladder slot (j ≥ 1) the store occupies, or TopLevel
	// for a top collection of the worst-case engine.
	Level int
	// Gen is the store's build generation: a per-ladder monotonic
	// counter assigned when the store is first observed by Dump and kept
	// for as long as the store object lives. A store's static content is
	// immutable after its build (only the lazy-deletion state mutates),
	// so an unchanged Gen across two dumps means the underlying
	// structure was not rebuilt in between — the property incremental
	// checkpoints key on. Gen 0 means "unassigned" (dumps produced
	// before generation tracking).
	Gen   uint64
	Store Store[K, I]
}

// TopLevel is the StoreDump.Level value of worst-case top collections.
const TopLevel = -1

// assignGens stamps every dumped store with its build generation,
// allocating fresh generations for stores seen for the first time, and
// returns the pruned identity→generation map (retired stores drop out,
// so the map never outgrows the live ladder). Store identity is pointer
// identity: a rebuild produces a new store object and therefore a new
// generation, while lazy deletions mutate a store in place and keep it.
func assignGens[K comparable, I any](gens map[Store[K, I]]uint64, genc *uint64, d *Dump[K, I]) map[Store[K, I]]uint64 {
	next := make(map[Store[K, I]]uint64, len(d.Stores))
	for i := range d.Stores {
		st := d.Stores[i].Store
		g, ok := gens[st]
		if !ok {
			*genc++
			g = *genc
		}
		next[st] = g
		d.Stores[i].Gen = g
	}
	return next
}

// seedGens installs a restored dump's generations so a ladder loaded
// from a checkpoint keeps reporting the same generations — which is
// what lets the next incremental checkpoint reuse the segments it was
// itself loaded from. Stores restored without a generation are stamped
// fresh at the next Dump.
func seedGens[K comparable, I any](gens map[Store[K, I]]uint64, genc *uint64, d Dump[K, I]) map[Store[K, I]]uint64 {
	if gens == nil {
		gens = make(map[Store[K, I]]uint64, len(d.Stores))
	}
	for _, ds := range d.Stores {
		if ds.Gen == 0 {
			continue
		}
		gens[ds.Store] = ds.Gen
		if ds.Gen > *genc {
			*genc = ds.Gen
		}
	}
	return gens
}

// Dump is the structural snapshot of a quiesced ladder.
type Dump[K comparable, I any] struct {
	// NF and Tau are the schedule anchors in effect (weight at the last
	// global rebuild and the lazy-deletion parameter τ), so a restored
	// ladder re-derives the same capacity schedule.
	NF, Tau int
	// C0 holds the uncompressed store's live items.
	C0 []I
	// Stores lists every static store exactly once.
	Stores []StoreDump[K, I]
}

// Dump captures the ladder's current structure. The amortized engine
// is always quiescent; the caller must not mutate the ladder until the
// returned stores have been serialized.
func (a *Amortized[K, I]) Dump() Dump[K, I] {
	d := Dump[K, I]{NF: a.nf, Tau: a.tau, C0: a.c0.LiveItems()}
	for j := 1; j < len(a.levels); j++ {
		if a.levels[j] != nil {
			d.Stores = append(d.Stores, StoreDump[K, I]{Level: j, Store: a.levels[j]})
		}
	}
	a.genMu.Lock()
	a.gens = assignGens(a.gens, &a.genc, &d)
	a.genMu.Unlock()
	return d
}

// adopt registers every live key of st in the owner map, rejecting
// duplicates (two stores claiming one key means the snapshot is
// corrupt: queries would double-report and Len would drift).
func adopt[K comparable, I any](owner map[K]Store[K, I], st Store[K, I]) error {
	for _, k := range st.LiveKeys() {
		if _, dup := owner[k]; dup {
			return snap.Corruptf("key %v owned by two stores", k)
		}
		owner[k] = st
	}
	return nil
}

// Restore installs a dump into an empty ladder: the capacity schedule
// is re-derived from the dump's anchors, C0 items are re-ingested, and
// each store is placed back at its slot. A store whose slot is out of
// range or already taken is absorbed through the normal insertion path
// (item extraction plus one bulk placement) — correct for any input,
// fast for inputs that match the engine's own dumps.
func (a *Amortized[K, I]) Restore(d Dump[K, I]) error {
	if len(a.owner) != 0 {
		return snap.Corruptf("restore into a non-empty ladder")
	}
	defer a.rebuildStores()
	a.reschedule(d.NF)
	if d.Tau > 0 {
		a.tau = d.Tau
	}
	for _, it := range d.C0 {
		k := a.cfg.Key(it)
		if _, dup := a.owner[k]; dup {
			return snap.Corruptf("key %v appears twice in C0", k)
		}
		a.c0.Insert(it)
		a.owner[k] = a.c0
	}
	var leftover []I
	for _, ds := range d.Stores {
		if ds.Level >= 1 && ds.Level < len(a.levels) && ds.Level < len(a.maxes) && a.levels[ds.Level] == nil {
			a.levels[ds.Level] = ds.Store
			if err := adopt(a.owner, ds.Store); err != nil {
				return err
			}
			continue
		}
		leftover = append(leftover, ds.Store.LiveItems()...)
	}
	if len(leftover) > 0 {
		if err := a.InsertBatch(leftover); err != nil {
			return snap.Corruptf("replaying %d displaced items: %v", len(leftover), err)
		}
	}
	a.genMu.Lock()
	a.gens = seedGens(a.gens, &a.genc, d)
	a.genMu.Unlock()
	return nil
}

// Dump captures the ladder's structure after closing the open top and
// quiescing every in-flight background build (so no store feeds a build
// and every store sits in a slot). The caller must not mutate the
// ladder until the returned stores have been serialized.
func (w *WorstCase[K, I]) Dump() Dump[K, I] {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closeOpen()
	for len(w.builds) > 0 || w.needsReb {
		w.drainLocked(true)
	}
	d := Dump[K, I]{NF: w.nf, Tau: w.tau, C0: w.c0.LiveItems()}
	for j := 1; j < len(w.levels); j++ {
		if w.levels[j] != nil {
			d.Stores = append(d.Stores, StoreDump[K, I]{Level: j, Store: w.levels[j]})
		}
		for _, tmp := range w.temps[j] {
			d.Stores = append(d.Stores, StoreDump[K, I]{Level: j, Store: tmp})
		}
	}
	for _, tp := range w.tops {
		d.Stores = append(d.Stores, StoreDump[K, I]{Level: TopLevel, Store: tp})
	}
	w.gens = assignGens(w.gens, &w.genc, &d)
	return d
}

// Restore installs a dump into an empty ladder. Stores whose slot is
// occupied park as temp payloads (the engine's native representation
// for extra stores at a slot); out-of-range slots and TopLevel stores
// become top collections.
func (w *WorstCase[K, I]) Restore(d Dump[K, I]) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.owner) != 0 || len(w.builds) != 0 {
		return snap.Corruptf("restore into a non-empty ladder")
	}
	w.invalidateStores()
	w.reschedule(d.NF)
	if d.Tau > 0 {
		w.tau = d.Tau
	}
	for _, it := range d.C0 {
		k := w.cfg.Key(it)
		if _, dup := w.owner[k]; dup {
			return snap.Corruptf("key %v appears twice in C0", k)
		}
		w.c0.Insert(it)
		w.owner[k] = w.c0
	}
	for _, ds := range d.Stores {
		switch {
		case ds.Level >= 1 && ds.Level < len(w.maxes) && w.levels[ds.Level] == nil:
			w.levels[ds.Level] = ds.Store
		case ds.Level >= 1 && ds.Level < len(w.maxes):
			w.temps[ds.Level] = append(w.temps[ds.Level], ds.Store)
		default:
			w.tops = append(w.tops, ds.Store)
		}
		if err := adopt(w.owner, ds.Store); err != nil {
			return err
		}
	}
	if len(w.tops) > w.stats.MaxTops {
		w.stats.MaxTops = len(w.tops)
	}
	w.gens = seedGens(w.gens, &w.genc, d)
	return nil
}
