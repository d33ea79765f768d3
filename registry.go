package dyncoll

import (
	"fmt"
	"sort"
	"sync"

	"dyncoll/internal/core"
	"dyncoll/internal/fmindex"
	"dyncoll/internal/snap"
)

// StaticIndex is the contract a static compressed index must satisfy to
// be dynamized by the paper's framework — a "(u(n), w(n))-constructible"
// index answering range-finding, locating, extraction and suffix-rank
// queries (Section 2). Implement it and register a builder with
// RegisterIndex to plug any index family into Collection; the dynamic
// machinery (sub-collection ladder, lazy deletions, background rebuilds)
// is index-agnostic.
type StaticIndex = core.StaticIndex

// IndexConfig carries the per-collection tuning knobs a builder may
// honor.
type IndexConfig struct {
	// SampleRate is the suffix-array sampling rate s: locate costs O(s),
	// the samples cost O(n/s·log n) bits. Builders without a
	// locate/space trade-off may ignore it. 0 means the builder's
	// default.
	SampleRate int
}

// IndexBuilder constructs a StaticIndex over a document set. It
// corresponds to the paper's construction algorithm with cost O(n·u(n))
// time and O(n·w(n)) workspace.
type IndexBuilder func(docs []Document, cfg IndexConfig) StaticIndex

// IndexDecoder reconstructs a StaticIndex from the binary form the
// index wrote through its AppendBinary method. Registering one (see
// RegisterIndexDecoder) enables the snapshot fast path for that index:
// Save embeds the index bytes instead of raw documents and Load skips
// the O(n·u(n)) rebuild. Indexes without a decoder still round-trip
// through snapshots — their levels are stored as raw documents and
// rebuilt by the registered IndexBuilder at load.
type IndexDecoder = core.IndexDecoder

// Built-in static-index names, registered at package init.
const (
	// IndexFMM is the FM-index and the default index: a 4-ary
	// Huffman-shaped wavelet tree over the BWT, so about nH₀ bits for
	// the sequence, not nH_k; its SA samples packed to ⌈log₂⌈n/s⌉⌉ bits;
	// and its ISA samples kept as shortcuts through the SA samples,
	// about ⌈log₂⌈n/s⌉⌉/4 + 1 bits per sample (the stand-in for the
	// Belazzougui–Navarro / Barbay et al. indexes of the paper's Tables
	// 1–2). Its rows are in multi-string order and its documents start
	// at multiples of s, so the index over a list of documents is the
	// same however it was produced, and the collection merges and purges
	// its stores without sorting them again.
	IndexFMM = "fmm"
	// IndexFMP is the same FM-index over the concatenation's row order,
	// which every rebuild sorts again. Files written with it keep
	// opening as it.
	IndexFMP = "fmp"
	// IndexFMZ is the same FM-index, whose files store the ISA samples
	// as a second array of rows, packed to ⌈log₂ n⌉ bits, beside SA
	// samples packed to ⌈log₂⌈n/s⌉⌉ bits. Files written with it keep
	// opening as it.
	IndexFMZ = "fmz"
	// IndexFM4 is the same FM-index, whose files store the samples as
	// 32-bit integers. Files written with it keep opening as it.
	IndexFM4 = "fm4"
	// IndexFM is IndexFM4 over a binary wavelet tree: every
	// backward-search and LF step walks about twice the levels. Files
	// written with it keep opening as it.
	IndexFM = "fm"
	// IndexSA is the O(n log σ)-bit plain suffix-array index (the
	// Grossi–Vitter stand-in of Table 3): faster queries, more space.
	IndexSA = "sa"
	// IndexCSA is the Ψ-based compressed suffix array (Sadakane flavour):
	// no rank/select machinery at all, a second compressed family
	// demonstrating the framework's index-agnosticism.
	IndexCSA = "csa"
)

// indexEntry is one registered index family: the mandatory builder,
// the optional snapshot fast-path decoder, and the optional v2 mapped
// opener (built-ins only for now — custom indexes round-trip through
// v2 snapshots as raw documents rebuilt at open).
type indexEntry struct {
	build      IndexBuilder
	decode     IndexDecoder
	openMapped core.IndexOpener
}

var indexRegistry = struct {
	mu sync.RWMutex
	m  map[string]*indexEntry
}{m: make(map[string]*indexEntry)}

// RegisterIndex makes a static-index builder available to NewCollection
// under the given name (case-sensitive). It fails with ErrIndexExists if
// the name is taken and ErrInvalidOption on an empty name or nil
// builder. Registration is typically done from an init function.
func RegisterIndex(name string, builder IndexBuilder) error {
	if name == "" {
		return fmt.Errorf("dyncoll: %w: empty index name", ErrInvalidOption)
	}
	if builder == nil {
		return fmt.Errorf("dyncoll: %w: nil builder for index %q", ErrInvalidOption, name)
	}
	indexRegistry.mu.Lock()
	defer indexRegistry.mu.Unlock()
	if _, taken := indexRegistry.m[name]; taken {
		return fmt.Errorf("dyncoll: %w: %q", ErrIndexExists, name)
	}
	indexRegistry.m[name] = &indexEntry{build: builder}
	return nil
}

// RegisterIndexDecoder attaches a snapshot fast-path decoder to an
// already-registered index. It fails with ErrUnknownIndex if no builder
// is registered under name, ErrInvalidOption on a nil decoder, and
// ErrIndexExists if the index already has a decoder.
func RegisterIndexDecoder(name string, dec IndexDecoder) error {
	if dec == nil {
		return fmt.Errorf("dyncoll: %w: nil decoder for index %q", ErrInvalidOption, name)
	}
	indexRegistry.mu.Lock()
	defer indexRegistry.mu.Unlock()
	ent, ok := indexRegistry.m[name]
	if !ok {
		return fmt.Errorf("dyncoll: %w: %q (register the builder first)", ErrUnknownIndex, name)
	}
	if ent.decode != nil {
		return fmt.Errorf("dyncoll: %w: %q already has a decoder", ErrIndexExists, name)
	}
	ent.decode = dec
	return nil
}

// RegisteredIndexes returns the names of all registered static indexes,
// sorted.
func RegisteredIndexes() []string {
	indexRegistry.mu.RLock()
	defer indexRegistry.mu.RUnlock()
	return registeredLocked()
}

// lookupIndex resolves a registered builder by name.
func lookupIndex(name string) (IndexBuilder, error) {
	indexRegistry.mu.RLock()
	defer indexRegistry.mu.RUnlock()
	ent, ok := indexRegistry.m[name]
	if !ok {
		return nil, fmt.Errorf("dyncoll: %w: %q (registered: %v)", ErrUnknownIndex, name, registeredLocked())
	}
	return ent.build, nil
}

// lookupDecoder resolves an index's snapshot decoder; nil when the
// index has none (snapshots then use the raw-document fallback).
func lookupDecoder(name string) IndexDecoder {
	indexRegistry.mu.RLock()
	defer indexRegistry.mu.RUnlock()
	if ent, ok := indexRegistry.m[name]; ok {
		return ent.decode
	}
	return nil
}

// lookupMappedOpener resolves an index's v2 mapped opener; nil when the
// index has none (its v2 stores then travel as raw documents).
func lookupMappedOpener(name string) core.IndexOpener {
	indexRegistry.mu.RLock()
	defer indexRegistry.mu.RUnlock()
	if ent, ok := indexRegistry.m[name]; ok {
		return ent.openMapped
	}
	return nil
}

// setMappedOpener attaches a v2 opener to a registered entry (init-time
// wiring for the built-ins).
func setMappedOpener(name string, open core.IndexOpener) {
	indexRegistry.mu.Lock()
	defer indexRegistry.mu.Unlock()
	indexRegistry.m[name].openMapped = open
}

// registeredLocked lists names under a held read lock (for error detail).
func registeredLocked() []string {
	out := make([]string, 0, len(indexRegistry.m))
	for name := range indexRegistry.m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func mustRegister(name string, b IndexBuilder, dec IndexDecoder) {
	if err := RegisterIndex(name, b); err != nil {
		panic(err) // unreachable: built-ins register once on fresh names
	}
	if err := RegisterIndexDecoder(name, dec); err != nil {
		panic(err)
	}
}

func init() {
	for _, fm := range []struct {
		name   string
		layout fmindex.Layout
	}{{IndexFMM, fmindex.FMM}, {IndexFMP, fmindex.FMP}, {IndexFMZ, fmindex.FMZ}, {IndexFM4, fmindex.FM4}, {IndexFM, fmindex.FM}} {
		mustRegister(fm.name, func(docs []Document, cfg IndexConfig) StaticIndex {
			return fmindex.Build(docs, fmindex.Options{SampleRate: cfg.SampleRate, Layout: fm.layout})
		}, func(data []byte) (StaticIndex, error) {
			x, err := fmindex.Decode(data, fm.layout)
			if err != nil {
				return nil, err
			}
			return x, nil
		})
		setMappedOpener(fm.name, func(mv *snap.MapView) (StaticIndex, error) {
			x, err := fmindex.OpenMapped(mv, fm.layout)
			if err != nil {
				return nil, err
			}
			return x, nil
		})
	}
	mustRegister(IndexSA, func(docs []Document, cfg IndexConfig) StaticIndex {
		return fmindex.BuildSA(docs)
	}, func(data []byte) (StaticIndex, error) {
		x := &fmindex.SAIndex{}
		if err := x.UnmarshalBinary(data); err != nil {
			return nil, err
		}
		return x, nil
	})
	mustRegister(IndexCSA, func(docs []Document, cfg IndexConfig) StaticIndex {
		return fmindex.BuildCSA(docs, fmindex.Options{SampleRate: cfg.SampleRate})
	}, func(data []byte) (StaticIndex, error) {
		x := &fmindex.CSA{}
		if err := x.UnmarshalBinary(data); err != nil {
			return nil, err
		}
		return x, nil
	})
	setMappedOpener(IndexSA, func(mv *snap.MapView) (StaticIndex, error) {
		return fmindex.OpenMappedSA(mv)
	})
	setMappedOpener(IndexCSA, func(mv *snap.MapView) (StaticIndex, error) {
		return fmindex.OpenMappedCSA(mv)
	})
}
