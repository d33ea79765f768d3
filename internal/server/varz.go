package server

import (
	"fmt"
	"io"

	"dyncoll"
)

// Varz is the /varz document: per-endpoint request metrics plus the
// role-specific state — the engine ladder for a backend, the backend
// fleet for a frontend. cmd/dyndoc renders the same LadderVarz as text,
// so the CLI's stats report and the service's metrics cannot drift.
type Varz struct {
	Role          string                  `json:"role"` // "backend" or "frontend"
	UptimeSeconds float64                 `json:"uptime_seconds"`
	Endpoints     map[string]EndpointVarz `json:"endpoints"`
	// Counters are the role's named fault-tolerance counters (retries,
	// hedges, hedge_wins, breaker_trips, …), absent when none ticked.
	Counters map[string]int64 `json:"counters,omitempty"`

	// Backend role. RangeDocs breaks Docs down by hosted assignment row
	// (JSON object keys must be strings, hence the stringified row ids).
	Docs      int                `json:"docs,omitempty"`
	RangeDocs map[string]RowVarz `json:"range_docs,omitempty"`
	Ladder    *LadderVarz        `json:"ladder,omitempty"`

	// Frontend role.
	Backends []BackendVarz `json:"backends,omitempty"`
	// Replication is the R of the table the frontend routes by (see
	// /v1/assignment for the full table).
	Replication int `json:"replication,omitempty"`
	// BackendLatencyMs is the per-backend-call latency distribution the
	// adaptive hedge delay derives from.
	BackendLatencyMs *Quantiles `json:"backend_latency_ms,omitempty"`
}

// LadderVarz is the engine-level structure report shared by every
// surface that exposes ladder stats: the /varz endpoint serves it as
// JSON and cmd/dyndoc's stats command renders it with WriteText.
type LadderVarz struct {
	// Unit names the structure's weight unit: "symbol" (collections),
	// "pair" (relations), or "edge" (graphs).
	Unit string `json:"unit"`
	// Live, SizeBits and BitsPerUnit measure the whole structure; on a
	// backend they sum every hosted collection, assignment rows
	// included.
	Live        int     `json:"live"`
	SizeBits    int64   `json:"size_bits"`
	BitsPerUnit float64 `json:"bits_per_unit"`
	// Shards is the shard count (0 when unsharded); ShardSizes is the
	// per-shard live-weight occupancy, when the caller provides it. On a
	// backend these, like every field below, describe the default
	// collection only; each hosted row's are in Varz.RangeDocs.
	Shards     int   `json:"shards,omitempty"`
	ShardSizes []int `json:"shard_sizes,omitempty"`
	// MappedBytes/HeapBytes split the footprint into snapshot pages
	// served in place (LoadMappedFile) and ordinary heap, so operators
	// can see residency; MappedBytes is zero for never-mapped
	// structures.
	MappedBytes int64 `json:"mapped_bytes,omitempty"`
	HeapBytes   int64 `json:"heap_bytes,omitempty"`
	// Engine counters, straight from dyncoll.IndexStats.
	Tau            int `json:"tau"`
	Rebuilds       int `json:"rebuilds"`
	GlobalRebuilds int `json:"global_rebuilds"`
	PendingBuilds  int `json:"pending_builds"`
	// Parked is the weight held unbuilt, answered by scanning until the
	// background builds replacing it land.
	Parked int `json:"parked"`
	// Built is the weight handed to the static-index builder so far, by
	// cause; Built.Total() over the weight inserted is the structure's
	// write amplification, and Built.Sorted the part of it sorted.
	Built dyncoll.BuiltWeight `json:"built_weight"`
	// Space is the FM-indexed stores' footprint in bits, section by
	// section; zero for other indexes, relations and graphs.
	Space dyncoll.IndexSpace `json:"space"`
	// Levels is the sub-collection ladder, level 0 the uncompressed C0.
	Levels []LevelVarz `json:"levels"`
	// TopSizes lists live weights of the worst-case top collections.
	TopSizes []int `json:"top_sizes,omitempty"`
}

// RowVarz is one hosted assignment row: its documents and its ladder.
type RowVarz struct {
	Docs   int        `json:"docs"`
	Ladder LadderVarz `json:"ladder"`
}

// LevelVarz is one ladder slot's occupancy.
type LevelVarz struct {
	Size int `json:"size"`
	Cap  int `json:"cap"`
}

// BackendVarz is a frontend's view of one backend: the liveness poll
// plus the routing-side health the frontend maintains itself (breaker
// state and failure accounting — what actually gates traffic).
type BackendVarz struct {
	URL     string `json:"url"`
	OK      bool   `json:"ok"`
	Error   string `json:"error,omitempty"`
	Docs    int    `json:"docs,omitempty"`
	Symbols int    `json:"symbols,omitempty"`
	Breaker string `json:"breaker,omitempty"` // closed | open | half-open
	Trips   int64  `json:"breaker_trips,omitempty"`
	Probes  int64  `json:"breaker_probes,omitempty"`
	Fails   int64  `json:"transport_failures,omitempty"`
}

// NewLadderVarz maps the facade's IndexStats onto the shared report.
func NewLadderVarz(st dyncoll.IndexStats, unit string, live int, sizeBits int64) LadderVarz {
	v := LadderVarz{
		Unit:           unit,
		Live:           live,
		SizeBits:       sizeBits,
		BitsPerUnit:    float64(sizeBits) / float64(max(1, live)),
		Shards:         st.Shards,
		MappedBytes:    st.MappedBytes,
		HeapBytes:      st.HeapBytes,
		Tau:            st.Tau,
		Rebuilds:       st.Rebuilds,
		GlobalRebuilds: st.GlobalRebuilds,
		PendingBuilds:  st.PendingBuilds,
		Parked:         st.Parked,
		Built:          st.BuiltWeight,
		Space:          st.Space,
		TopSizes:       st.TopSizes,
	}
	for j, sz := range st.LevelSizes {
		v.Levels = append(v.Levels, LevelVarz{Size: sz, Cap: st.LevelCaps[j]})
	}
	return v
}

// WriteText renders the report in cmd/dyndoc's stats format.
func (v *LadderVarz) WriteText(w io.Writer) {
	fmt.Fprintf(w, "%-10s %d\n", v.Unit+"s:", v.Live)
	fmt.Fprintf(w, "%-10s %d bits (%.2f bits/%s)\n", "size:", v.SizeBits, v.BitsPerUnit, v.Unit)
	if v.Shards > 0 {
		fmt.Fprintf(w, "%-10s %d", "shards:", v.Shards)
		if len(v.ShardSizes) > 0 {
			fmt.Fprintf(w, ", occupancy %v", v.ShardSizes)
		}
		fmt.Fprintln(w)
	}
	if v.MappedBytes > 0 {
		fmt.Fprintf(w, "%-10s %d B mapped, %d B heap\n", "residency:", v.MappedBytes, v.HeapBytes)
	}
	fmt.Fprintf(w, "%-10s τ=%d, rebuilds=%d, global=%d, pending builds=%d, parked=%d\n",
		"engine:", v.Tau, v.Rebuilds, v.GlobalRebuilds, v.PendingBuilds, v.Parked)
	fmt.Fprintf(w, "%-10s %d %ss: level merges %d, tops %d, purges %d, rebalances %d; sorted %d\n",
		"built:", v.Built.Total(), v.Unit, v.Built.LevelMerge, v.Built.Top, v.Built.Purge, v.Built.Rebalance, v.Built.Sorted)
	fmt.Fprintf(w, "%-10s %d slots (occupancy/capacity, level 0 = uncompressed C0)\n", "ladder:", len(v.Levels))
	for j, lv := range v.Levels {
		fmt.Fprintf(w, "  level %-3d %12d / %d\n", j, lv.Size, lv.Cap)
	}
	if len(v.TopSizes) > 0 {
		fmt.Fprintf(w, "%-10s %d collections, sizes %v\n", "tops:", len(v.TopSizes), v.TopSizes)
	}
	if sp := v.Space; sp.Total() > 0 {
		perSym := func(bits int64) float64 { return float64(bits) / float64(max(v.Live, 1)) }
		fmt.Fprintf(w, "%-10s %.3f bits/%s: tree %.3f, marks %.3f, SA samples %.3f, ISA samples %.3f, separators %.3f, doc table %.3f, symbols %.3f\n",
			"fm space:", perSym(sp.Total()), v.Unit, perSym(sp.Tree), perSym(sp.Marks), perSym(sp.SASamples),
			perSym(sp.ISASamples), perSym(sp.SepTables), perSym(sp.DocTable), perSym(sp.Symbols))
	}
}
