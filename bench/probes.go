package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"slices"

	"dyncoll"
	"dyncoll/internal/binrel"
	"dyncoll/internal/bitvec"
	"dyncoll/internal/core"
	"dyncoll/internal/fanout"
	"dyncoll/internal/fmindex"
	"dyncoll/internal/graph"
	"dyncoll/internal/query"
	"dyncoll/internal/sa"
	"dyncoll/internal/server"
	"dyncoll/internal/wal"
	"dyncoll/internal/wavelet"
)

// The layer probes of a traced run. Each builds one layer's object from
// the head of the workload's own corpus and times its exported functions
// directly, from here: nothing inside the library is instrumented. Where
// the workload itself runs the layer (the log and checkpoints under
// durable_restart, the servers under fleet_mixed) the numbers come from
// the workload's own system instead of a small stand-in.

// probeBytes is the corpus head the stand-in objects are built from.
const probeBytes = 4 << 20

// timed runs fn n times under one span and returns nanoseconds per call.
func (r *runner) timed(name string, n int, fn func(i int)) float64 {
	t0 := now()
	for i := range n {
		fn(i)
	}
	t1 := now()
	r.tr.add(span{Name: "probe:" + name, Start: t0, End: t1, Parent: -1, Op: -1})
	return float64(t1-t0) / float64(n)
}

// scatter spreads call i over [0, n) so consecutive probes touch
// unrelated cache lines, as queries do.
func scatter(i, n int) int { return int(uint64(i+1) * 0x9E3779B97F4A7C15 % uint64(n)) }

func (r *runner) probes(v values, docs []dyncoll.Document, dur *durableSys, fs0 counts, tail roundStat) error {
	probeCalls := r.cfg.probeCalls
	head := docs
	for i, n := 0, 0; i < len(docs); i++ {
		if n += len(docs[i].Data); n >= probeBytes {
			head = docs[:i+1]
			break
		}
	}
	var text []byte
	for _, d := range head {
		text = append(text, d.Data...)
	}
	syms := float64(len(text))
	sampler := newClient(r.cfg.w, r.cfg.seed+1, 0, 1, head)
	patterns := make([][]byte, probeCalls)
	for i := range patterns {
		patterns[i] = sampler.planted(8)
	}

	// bitvec: the corpus bytes read as a bit string.
	words := make([]uint64, len(text)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(text[8*i:])
	}
	bv := bitvec.FromWords(words, 64*len(words))
	sink := 0
	v["bitvec.rank1_ns"] = r.timed("bitvec.rank1", 50*probeCalls, func(i int) { sink += bv.Rank1(scatter(i, bv.Len())) })
	v["bitvec.select1_ns"] = r.timed("bitvec.select1", 50*probeCalls, func(i int) { sink += bv.Select1(1 + scatter(i, bv.Ones())) })

	// wavelet and sa: the two construction stages under fmindex.Build.
	var wt *wavelet.Tree
	v["wavelet.build_ns_per_sym"] = r.timed("wavelet.build", 1, func(int) { wt = wavelet.NewHuffmanBytes(text, 256) }) / syms
	v["wavelet.rank_ns"] = r.timed("wavelet.rank", 10*probeCalls, func(i int) {
		p := scatter(i, len(text))
		sink += wt.Rank(uint32(text[p]), p)
	})
	v["wavelet.access_ns"] = r.timed("wavelet.access", 10*probeCalls, func(i int) { sink += int(wt.Access(scatter(i, len(text)))) })
	v["sa.build_ns_per_sym"] = r.timed("sa.build", 1, func(int) { sink += len(sa.SuffixArray(text)) }) / syms

	// fmindex: the static index every compressed store is, and the CSA
	// alternative.
	var fm *fmindex.Index
	v["fmindex.build_ns_per_sym"] = r.timed("fmindex.build", 1, func(int) { fm = fmindex.Build(head, fmindex.Options{}) }) / syms
	v["fmindex.bits_per_sym"] = float64(fm.SizeBits()) / float64(fm.SymbolCount())
	v["fmindex.range_ns"] = r.timed("fmindex.range", probeCalls, func(i int) {
		lo, hi := fm.Range(patterns[i])
		sink += hi - lo
	})
	v["fmindex.locate_ns"] = r.timed("fmindex.locate", probeCalls, func(i int) {
		d, off := fm.Locate(scatter(i, fm.SALen()))
		sink += d + off
	})
	v["fmindex.extract_ns_per_sym"] = r.timed("fmindex.extract", probeCalls, func(i int) {
		sink += len(fm.Extract(scatter(i, fm.DocCount()), 0, 64))
	}) / 64
	csa := fmindex.BuildCSA(head, fmindex.Options{})
	v["fmindex.csa_range_ns"] = r.timed("fmindex.csa_range", probeCalls, func(i int) {
		lo, hi := csa.Range(patterns[i])
		sink += hi - lo
	})

	// core: the worst-case ladder over the FM-index with no facade,
	// sharding or locking above it.
	lad := core.NewWorstCase(core.Options{Builder: func(ds []dyncoll.Document) core.StaticIndex {
		return fmindex.Build(ds, fmindex.Options{})
	}})
	var ierr error
	v["core.insert_ns_per_sym"] = r.timed("core.insert", 1, func(int) {
		for i := 0; i < len(head) && ierr == nil; i += 64 {
			ierr = lad.InsertBatch(head[i:min(i+64, len(head))])
		}
		lad.WaitIdle()
	}) / syms
	if ierr != nil {
		return ierr
	}
	v["core.count_ns"] = r.timed("core.count", probeCalls, func(i int) { sink += lad.Count(patterns[i]) })
	occs := 0
	v["core.find_ns_per_occ"] = r.timed("core.find", probeCalls/4, func(i int) {
		lad.FindFunc(patterns[i][:findLen], func(core.Occurrence) bool {
			occs++
			return true
		})
	}) * float64(probeCalls/4) / float64(max(occs, 1))

	// query: planning, and both plan kinds over that one ladder.
	specs := make([]dyncoll.SearchPlan, probeCalls/4)
	for i := range specs {
		o := op{pattern: sampler.planted(2*searchLit + searchGap)}
		specs[i] = dyncoll.SearchPlan{Pattern: o.regex(), Regex: true}
	}
	plans := make([]*query.Plan, len(specs))
	var qerr error
	v["query.compile_ns"] = r.timed("query.compile", len(specs), func(i int) {
		var err error
		if plans[i], err = query.Compile(specs[i]); err != nil {
			qerr = err
		}
	})
	if qerr != nil {
		return qerr
	}
	count := func(query.Match) bool { sink++; return true }
	v["query.regex_ns"] = r.timed("query.regex", len(plans), func(i int) { query.Over(lad).Execute(plans[i], count) })
	v["query.topk_ns"] = r.timed("query.topk", len(plans), func(i int) {
		p, _ := query.Compile(query.Spec{PatternB: patterns[i], Ranked: true, K: topK}) // an exact plan always compiles
		query.Over(lad).Execute(p, count)
	})

	// The delete probe comes last: it leaves the ladder a quarter dead.
	ids, dead := []uint64{}, 0
	for _, d := range head[:len(head)/4] {
		ids = append(ids, d.ID)
		dead += len(d.Data)
	}
	v["core.delete_ns_per_sym"] = r.timed("core.delete", 1, func(int) {
		sink += lad.DeleteBatch(ids)
		lad.WaitIdle()
	}) / float64(dead)

	// fanout: what handing a query to two shards costs when neither has
	// anything to say.
	v["fanout.handoff_ns"] = r.timed("fanout.handoff", probeCalls, func(int) {
		fanout.FanOut(2, func(int, func(int) bool) {}, func(int) bool { return true })
	})

	// binrel and graph share the engine with pair payloads; a probe
	// only, to show a ladder change has not broken them.
	rel := binrel.New(binrel.Options{})
	pairs := 20 * probeCalls
	v["binrel.add_ns"] = r.timed("binrel.add", pairs, func(i int) {
		rel.Add(uint64(i%probeCalls), uint64(binary.LittleEndian.Uint32(text[4*(i%(len(text)/4)):])))
	})
	labels := 0
	v["binrel.labels_ns_per_result"] = r.timed("binrel.labels", probeCalls, func(i int) {
		labels += len(rel.Labels(uint64(i)))
	}) * float64(probeCalls) / float64(max(labels, 1))
	g := graph.New(graph.Options{})
	v["graph.add_edge_ns"] = r.timed("graph.add_edge", pairs, func(i int) {
		g.AddEdge(uint64(i%probeCalls), uint64(binary.LittleEndian.Uint32(text[4*(i%(len(text)/4)):])))
	})
	edges := 0
	v["graph.successors_ns_per_edge"] = r.timed("graph.successors", probeCalls, func(i int) {
		edges += len(g.Neighbors(uint64(i)))
	}) * float64(probeCalls) / float64(max(edges, 1))
	_ = sink

	dir := filepath.Join(r.cfg.outDir, r.cfg.w.name+"-probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := r.probeWAL(v, dir, head); err != nil {
		return err
	}
	if err := r.probeDurable(v, dir, head, dur, fs0, tail); err != nil {
		return err
	}
	if err := r.probeSnapshots(v, dir, head); err != nil {
		return err
	}
	return r.probeServer(v, dir, head, patterns)
}

// probeWAL times the log's two calls on records the size of the
// workload's inserts: Append (frame and write) and Commit (the fsync).
func (r *runner) probeWAL(v values, dir string, head []dyncoll.Document) error {
	log, err := wal.Open(filepath.Join(dir, "log"), 0, wal.Options{})
	if err != nil {
		return err
	}
	var appendNs, commitUs []float64
	for i := 0; i+4 <= len(head) && len(appendNs) < 200; i += 4 {
		var rec []byte
		for _, d := range head[i : i+4] {
			rec = append(rec, d.Data...)
		}
		t0 := now()
		lsn, err := log.Append(rec)
		t1 := now()
		if err == nil {
			err = log.Commit(lsn)
		}
		t2 := now()
		if err != nil {
			log.Close()
			return err
		}
		r.tr.add(span{Name: "probe:wal.append", Start: t0, End: t1, Parent: -1, Op: -1})
		r.tr.add(span{Name: "probe:wal.commit", Start: t1, End: t2, Parent: -1, Op: -1})
		appendNs = append(appendNs, float64(t1-t0))
		commitUs = append(commitUs, float64(t2-t1)/1e3)
	}
	v["wal.append_ns"] = percentile(appendNs, 0.5)
	v["wal.commit_us"] = percentile(commitUs, 0.5)
	return log.Close()
}

// probeDurable reads the log and checkpoint budget off a durable
// system: the workload's own under durable_restart, otherwise a stand-in
// fed the corpus head, settled, and run through one tail round of the
// durable workload's mix. Per-op figures cover the tail round, which
// starts at a checkpoint and has a fixed op count, so they repeat for a
// seed.
func (r *runner) probeDurable(v values, dir string, head []dyncoll.Document, dur *durableSys, fs0 counts, tail roundStat) error {
	lifeBytes := totalBytes(head)
	if dur == nil {
		w := workloadByName("durable_restart")
		var err error
		if dur, err = newDurableSys(dir, head, w.ingestBatch, 1<<20, true); err != nil {
			return err
		}
		defer dur.close()
		if err := dur.settle(); err != nil {
			return err
		}
		fs0 = dur.fs.snapshot()
		ops := newClient(w, r.cfg.seed, 0, 1, head).round(tailDiv)
		tail = tally(ops)
		for _, o := range ops {
			if _, a := execute(dur.targets()[0], o); a.err != nil {
				return a.err
			}
		}
		if err := dur.stop(); err != nil {
			return err
		}
		if err := dur.reopen(); err != nil {
			return err
		}
	} else {
		lifeBytes = r.cfg.w.corpus
		for _, o := range r.rec.writes {
			lifeBytes += totalBytes(o.docs)
		}
	}
	fs1 := dur.fs.snapshot()
	v["wal.fsyncs_per_op"] = float64(fs1.walSyncs-fs0.walSyncs) / float64(tail.writes)
	v["wal.writes_per_op"] = float64(fs1.walWrites-fs0.walWrites) / float64(tail.writes)
	v["wal.bytes_per_user_byte"] = float64(fs1.walBytes-fs0.walBytes) / float64(tail.userBytes)
	v["snap.checkpoints"] = float64(fs1.checkpoints)
	v["snap.checkpoint_bytes_per_user_byte"] = float64(fs1.ckptBytes) / float64(lifeBytes)
	dur.fs.mu.Lock()
	ck := slices.Clone(dur.fs.ckptNanos)
	dur.fs.mu.Unlock()
	if len(ck) == 0 {
		return fmt.Errorf("durable probe: no checkpoint completed")
	}
	v["snap.checkpoint_ms"] = median(ck) / 1e6
	// A checkpoint runs inside the write that crossed the threshold, so
	// the longest one is the longest stall a writer saw from it.
	v["snap.checkpoint_stall_max_us"] = slices.Max(ck) / 1e3
	rec := dur.c.RecoveryStats()
	v["snap.recover_ms"] = float64(rec.Duration) / 1e6
	v["snap.replay_records"] = float64(rec.WALRecords)
	return nil
}

// probeSnapshots times the v1 and v2 codecs on a default collection
// holding the corpus head.
func (r *runner) probeSnapshots(v values, dir string, head []dyncoll.Document) error {
	c, err := dyncoll.NewCollection()
	if err != nil {
		return err
	}
	if err := c.InsertBatch(head); err != nil {
		return err
	}
	c.WaitIdle()
	v1, v2 := filepath.Join(dir, "probe.v1"), filepath.Join(dir, "probe.v2")
	mbPerS := func(name, path string, fn func() error) error {
		ns := r.timed(name, 1, func(int) { err = fn() })
		if err != nil {
			return err
		}
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		v[name+"_mb_per_s"] = float64(info.Size()) / 1e6 / (ns / 1e9)
		return nil
	}
	if err := mbPerS("snap.save_v1", v1, func() error { return c.SaveFile(v1) }); err != nil {
		return err
	}
	if err := mbPerS("snap.save_v2", v2, func() error { return c.SaveMappedFile(v2) }); err != nil {
		return err
	}
	loaded, err := dyncoll.NewCollection()
	if err != nil {
		return err
	}
	if err := mbPerS("snap.load_v1", v1, func() error { return loaded.LoadFile(v1) }); err != nil {
		return err
	}
	var open []float64
	for range 5 {
		var m *dyncoll.Collection
		open = append(open, r.timed("snap.open_v2", 1, func(int) { m, err = dyncoll.OpenMappedCollection(v2) })/1e3)
		if err != nil {
			return err
		}
		if err := m.Close(); err != nil {
			return err
		}
	}
	v["snap.open_v2_us"] = median(open)
	return nil
}

// probeServer splits one request's time by where it is spent: the same
// patterns are answered by calling row 0's collection directly, by its
// backend over HTTP, and by the frontend, which fans out to both rows
// and merges. Under fleet_mixed the fleet is the workload's own.
func (r *runner) probeServer(v values, dir string, head []dyncoll.Document, patterns [][]byte) error {
	fleet, _ := r.sys.(*fleetSys)
	if fleet == nil {
		var err error
		if fleet, err = newFleetSys(dir, head, 64, 1); err != nil {
			return err
		}
		defer fleet.close()
	} else {
		for i := range patterns {
			patterns[i] = r.clients[0].planted(8)
		}
	}
	inproc := collTarget{fleet.backends[0].Ranges()[0]}
	backend := newHTTPTarget("http://" + fleet.nodes[0].addr)
	backend.query = "&range=0"
	front := newHTTPTarget("http://" + fleet.fnode.addr)
	calls := len(patterns) / 4
	for _, hop := range []struct {
		name string
		t    target
	}{{"inproc", inproc}, {"backend", backend}, {"frontend", front}} {
		var countUs, findUs []float64
		for i := range calls {
			t0 := now()
			_, err := hop.t.Count(patterns[i])
			t1 := now()
			if err == nil {
				_, err = hop.t.Find(patterns[i][:findLen], findLimit)
			}
			t2 := now()
			if err != nil {
				return err
			}
			r.tr.add(span{Name: "probe:server." + hop.name + "_count", Start: t0, End: t1, Parent: -1, Op: -1})
			r.tr.add(span{Name: "probe:server." + hop.name + "_find", Start: t1, End: t2, Parent: -1, Op: -1})
			countUs = append(countUs, float64(t1-t0)/1e3)
			findUs = append(findUs, float64(t2-t1)/1e3)
		}
		v["server."+hop.name+"_count_us"] = percentile(countUs, 0.5)
		v["server."+hop.name+"_find_us"] = percentile(findUs, 0.5)
	}

	// Wire size of a find answer, per occurrence, through the frontend.
	var bodyBytes, occs int64
	for i := range calls {
		err := front.get(fmt.Sprintf("/v1/find?q=%s&limit=%d", url.QueryEscape(string(patterns[i][:findLen])), findLimit), func(body io.Reader) error {
			data, err := io.ReadAll(body)
			bodyBytes += int64(len(data))
			occs += int64(bytes.Count(data, []byte("\n")))
			return err
		})
		if err != nil {
			return err
		}
	}
	v["server.json_bytes_per_occ"] = float64(bodyBytes) / float64(max(occs, 1))

	// One backend's cost of an insert, without the frontend's write-all.
	// The documents land on one replica only; nothing reads them back.
	var insertUs []float64
	for i := range 50 {
		var docs []dyncoll.Document
		for k := 8 * i; k < 8*i+8; k++ {
			docs = append(docs, dyncoll.Document{ID: idBase(7) + uint64(k), Data: head[k%len(head)].Data})
		}
		t0 := now()
		if err := backend.Insert(docs); err != nil {
			return err
		}
		insertUs = append(insertUs, float64(now()-t0)/1e3)
	}
	v["server.backend_insert_us"] = percentile(insertUs, 0.5)

	// The frontend's own account of what its call engine did.
	var varz server.Varz
	if err := front.get("/varz", decodeInto(&varz)); err != nil {
		return err
	}
	v["server.hedges"] = float64(varz.Counters["hedges"])
	v["server.retries"] = float64(varz.Counters["retries"])
	trips := int64(0)
	for _, b := range varz.Backends {
		trips += b.Trips
	}
	v["server.breaker_trips"] = float64(trips)
	v["server.conns_accepted"] = float64(fleet.conns.Load())
	return nil
}
