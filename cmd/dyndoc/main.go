// Command dyndoc is an interactive/scriptable front end for the
// dynamic compressed structures. It reads simple commands from stdin
// (or a script via -f) and prints results to stdout. -mode selects the
// structure; all modes share the engine-level `stats` report (ladder
// occupancy, pending background builds, top collections), because all
// three structures run on the same generic transformation engine.
//
// -mode collection (default):
//
//	add <id> <text…>      insert a document
//	addfile <id> <path>   insert a file's contents as a document
//	del <id>              delete a document
//	find <pattern>        list occurrences (doc id + offset)
//	findn <k> <pattern>   list at most k occurrences (early-break fast path)
//	grep <regex>          list regex matches (doc id + offset + length)
//	top <k> <pattern>     k best-ranked documents for an exact pattern
//	rtop <k> <regex>      k best-ranked documents for a regex
//	count <pattern>       count occurrences
//	extract <id> <off> <len>
//	save <path>           write a snapshot (atomic temp-file + rename)
//	load <path>           replace the structure with a snapshot
//	stats                 engine statistics
//	quit
//
// -mode relation:
//
//	rel <obj> <label>     add the pair
//	unrel <obj> <label>   delete the pair
//	related <obj> <label>
//	labels <obj>          sorted labels of an object
//	objects <label>       sorted objects of a label
//	save/load <path> | stats | quit
//
// -mode graph:
//
//	edge <u> <v>          add the edge u→v
//	deledge <u> <v>       delete the edge
//	has <u> <v>
//	succ <u>              sorted successors
//	pred <v>              sorted predecessors
//	save/load <path> | stats | quit
//
// Flags select the transformation, static index (collection mode),
// shard count, and tuning parameters, so the CLI doubles as a manual
// test bench for the paper's machinery.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dyncoll"
	"dyncoll/internal/server"
)

func main() {
	var (
		mode      = flag.String("mode", "collection", "structure: collection | relation | graph")
		transform = flag.String("transform", "", "transformation: amortized | worstcase | fastinsert (default: worstcase for collections, amortized for relations/graphs)")
		index     = flag.String("index", dyncoll.IndexFMM, "static index by registry name: fmm | fmp | fmz | fm4 | fm | sa | csa | any RegisterIndex name (collection mode)")
		sample    = flag.Int("s", 16, "suffix-array sample rate s (collection mode)")
		tau       = flag.Int("tau", 0, "lazy-deletion parameter τ (0 = automatic)")
		shards    = flag.Int("shards", 0, "shard count p (0 = unsharded; p ≥ 1 partitions by key hash with parallel fan-out queries)")
		counting  = flag.Bool("counting", false, "enable Theorem 1 counting structures (collection mode)")
		script    = flag.String("f", "", "read commands from file instead of stdin")
	)
	flag.BoolVar(&useMmap, "mmap", false, "save/load use the v2 mapped snapshot format: O(1) open, queries served from the page cache")
	flag.Parse()

	var opts []dyncoll.Option
	if *mode == "collection" {
		opts = append(opts,
			dyncoll.WithIndex(*index),
			dyncoll.WithSampleRate(*sample),
		)
		if *counting {
			opts = append(opts, dyncoll.WithCounting())
		}
	}
	opts = append(opts, dyncoll.WithTau(*tau))
	if *shards != 0 { // 0 keeps the unsharded default; negatives reach WithShards and fail
		opts = append(opts, dyncoll.WithShards(*shards))
	}
	switch *transform {
	case "amortized":
		opts = append(opts, dyncoll.WithTransformation(dyncoll.Amortized))
	case "fastinsert":
		opts = append(opts, dyncoll.WithTransformation(dyncoll.AmortizedFastInsert))
	case "worstcase":
		opts = append(opts, dyncoll.WithTransformation(dyncoll.WorstCase))
	case "":
		// Each structure's default: worstcase for collections, amortized
		// for relations and graphs.
	default:
		fmt.Fprintf(os.Stderr, "unknown transformation %q\n", *transform)
		os.Exit(2)
	}

	var run func(cmd, rest string) error
	switch *mode {
	case "collection":
		c, err := dyncoll.NewCollection(opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		run = func(cmd, rest string) error { return runCollection(c, cmd, rest) }
	case "relation":
		r, err := dyncoll.NewRelation(opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		run = func(cmd, rest string) error { return runRelation(r, cmd, rest) }
	case "graph":
		g, err := dyncoll.NewGraph(opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		run = func(cmd, rest string) error { return runGraph(g, cmd, rest) }
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}

	in := os.Stdin
	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.SplitN(line, " ", 2)
		cmd := fields[0]
		rest := ""
		if len(fields) > 1 {
			rest = fields[1]
		}
		if err := run(cmd, rest); err != nil {
			if err == errQuit {
				return
			}
			fmt.Printf("error: %v\n", err)
		}
	}
}

var errQuit = fmt.Errorf("quit")

// printStats renders the uniform engine-level report every mode shares:
// live size, space, shard count, ladder occupancy, in-flight background
// builds, and top collections. The report is built from the same
// server.LadderVarz type the dyndocd /varz endpoint serves, so the CLI
// and the service metrics cannot drift.
func printStats(st dyncoll.IndexStats, unit string, live int, sizeBits int64, shardSizes []int) {
	v := server.NewLadderVarz(st, unit, live, sizeBits)
	v.ShardSizes = shardSizes
	v.WriteText(os.Stdout)
}

func runCollection(c *dyncoll.Collection, cmd, rest string) error {
	if handled, err := runSaveLoad(c, cmd, rest, func() string {
		return fmt.Sprintf("%d document(s)", c.DocCount())
	}); handled {
		return err
	}
	switch cmd {
	case "quit", "exit":
		return errQuit

	case "add":
		parts := strings.SplitN(rest, " ", 2)
		if len(parts) != 2 {
			return fmt.Errorf("usage: add <id> <text>")
		}
		id, err := strconv.ParseUint(parts[0], 10, 64)
		if err != nil {
			return err
		}
		if err := c.Insert(dyncoll.Document{ID: id, Data: []byte(parts[1])}); err != nil {
			return err
		}
		fmt.Printf("added %d (%d bytes)\n", id, len(parts[1]))

	case "addfile":
		parts := strings.Fields(rest)
		if len(parts) != 2 {
			return fmt.Errorf("usage: addfile <id> <path>")
		}
		id, err := strconv.ParseUint(parts[0], 10, 64)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(parts[1])
		if err != nil {
			return err
		}
		if err := c.Insert(dyncoll.Document{ID: id, Data: data}); err != nil {
			return err
		}
		fmt.Printf("added %d (%d bytes)\n", id, len(data))

	case "del":
		id, err := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
		if err != nil {
			return err
		}
		if err := c.Delete(id); err != nil {
			return err
		}
		fmt.Printf("deleted %d\n", id)

	case "find":
		if rest == "" {
			return fmt.Errorf("usage: find <pattern>")
		}
		n := 0
		c.FindFunc([]byte(rest), func(o dyncoll.Occurrence) bool {
			fmt.Printf("  doc %d @ %d\n", o.DocID, o.Off)
			n++
			return n < 1000
		})
		fmt.Printf("%d occurrence(s)\n", n)

	case "findn":
		parts := strings.SplitN(rest, " ", 2)
		if len(parts) != 2 {
			return fmt.Errorf("usage: findn <k> <pattern>")
		}
		k, err := strconv.Atoi(parts[0])
		if err != nil {
			return err
		}
		occs := c.FindLimit([]byte(parts[1]), k)
		for _, o := range occs {
			fmt.Printf("  doc %d @ %d\n", o.DocID, o.Off)
		}
		fmt.Printf("%d occurrence(s)\n", len(occs))

	case "grep":
		if rest == "" {
			return fmt.Errorf("usage: grep <regex>")
		}
		it, err := c.FindRegexp(rest)
		if err != nil {
			return err
		}
		n := 0
		for m := range it {
			fmt.Printf("  doc %d @ %d len %d\n", m.Doc, m.Off, m.Len)
			if n++; n >= 1000 {
				break
			}
		}
		fmt.Printf("%d match(es)\n", n)

	case "top", "rtop":
		parts := strings.SplitN(rest, " ", 2)
		if len(parts) != 2 {
			return fmt.Errorf("usage: %s <k> <pattern>", cmd)
		}
		k, err := strconv.Atoi(parts[0])
		if err != nil {
			return err
		}
		var it func(yield func(dyncoll.Match) bool)
		if cmd == "top" {
			it = c.FindTopK([]byte(parts[1]), k)
		} else if it, err = c.FindRegexpTopK(parts[1], k); err != nil {
			return err
		}
		n := 0
		for m := range it {
			fmt.Printf("  doc %d score %.4f (first @ %d)\n", m.Doc, m.Score, m.Off)
			n++
		}
		fmt.Printf("%d document(s)\n", n)

	case "count":
		if rest == "" {
			return fmt.Errorf("usage: count <pattern>")
		}
		fmt.Println(c.Count([]byte(rest)))

	case "extract":
		parts := strings.Fields(rest)
		if len(parts) != 3 {
			return fmt.Errorf("usage: extract <id> <off> <len>")
		}
		id, err1 := strconv.ParseUint(parts[0], 10, 64)
		off, err2 := strconv.Atoi(parts[1])
		length, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return fmt.Errorf("bad arguments")
		}
		data, ok := c.Extract(id, off, length)
		if !ok {
			return fmt.Errorf("no document %d or range out of bounds", id)
		}
		fmt.Printf("%q\n", data)

	case "stats":
		c.WaitIdle()
		fmt.Printf("%-10s %d\n", "documents:", c.DocCount())
		printStats(c.Stats(), "symbol", c.Len(), c.SizeBits(), c.ShardSizes())

	default:
		return fmt.Errorf("unknown command %q (add addfile del find findn grep top rtop count extract save load stats quit)", cmd)
	}
	return nil
}

// savable lets the three modes share the save/load command handling.
type savable interface {
	SaveFile(path string) error
	LoadFile(path string) error
	SaveMappedFile(path string) error
	LoadMappedFile(path string, opts ...dyncoll.MappedOption) error
}

// useMmap routes save/load through the v2 mapped snapshot format
// (-mmap flag).
var useMmap bool

// runSaveLoad handles the shared save/load commands; handled reports
// whether cmd was one of them.
func runSaveLoad(s savable, cmd, rest string, describe func() string) (handled bool, err error) {
	path := strings.TrimSpace(rest)
	switch cmd {
	case "save":
		if path == "" {
			return true, fmt.Errorf("usage: save <path>")
		}
		save := s.SaveFile
		if useMmap {
			save = s.SaveMappedFile
		}
		if err := save(path); err != nil {
			return true, err
		}
		fmt.Printf("saved %s to %s\n", describe(), path)
		return true, nil
	case "load":
		if path == "" {
			return true, fmt.Errorf("usage: load <path>")
		}
		load := s.LoadFile
		if useMmap {
			load = func(p string) error { return s.LoadMappedFile(p) }
		}
		if err := load(path); err != nil {
			return true, err
		}
		fmt.Printf("loaded %s from %s\n", describe(), path)
		return true, nil
	}
	return false, nil
}

// parsePair reads two uint64 arguments.
func parsePair(rest string) (a, b uint64, err error) {
	parts := strings.Fields(rest)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("need two numeric arguments")
	}
	a, err1 := strconv.ParseUint(parts[0], 10, 64)
	b, err2 := strconv.ParseUint(parts[1], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad arguments")
	}
	return a, b, nil
}

func parseOne(rest string) (uint64, error) {
	return strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
}

func runRelation(r *dyncoll.Relation, cmd, rest string) error {
	if handled, err := runSaveLoad(r, cmd, rest, func() string {
		return fmt.Sprintf("%d pair(s)", r.Len())
	}); handled {
		return err
	}
	switch cmd {
	case "quit", "exit":
		return errQuit

	case "rel":
		o, l, err := parsePair(rest)
		if err != nil {
			return err
		}
		if err := r.Add(o, l); err != nil {
			return err
		}
		fmt.Printf("related %d ↦ %d\n", o, l)

	case "unrel":
		o, l, err := parsePair(rest)
		if err != nil {
			return err
		}
		if err := r.Delete(o, l); err != nil {
			return err
		}
		fmt.Printf("unrelated %d ↦ %d\n", o, l)

	case "related":
		o, l, err := parsePair(rest)
		if err != nil {
			return err
		}
		fmt.Println(r.Related(o, l))

	case "labels":
		o, err := parseOne(rest)
		if err != nil {
			return err
		}
		fmt.Println(r.Labels(o))

	case "objects":
		l, err := parseOne(rest)
		if err != nil {
			return err
		}
		fmt.Println(r.Objects(l))

	case "stats":
		r.WaitIdle()
		printStats(r.Stats(), "pair", r.Len(), r.SizeBits(), nil)

	default:
		return fmt.Errorf("unknown command %q (rel unrel related labels objects save load stats quit)", cmd)
	}
	return nil
}

func runGraph(g *dyncoll.Graph, cmd, rest string) error {
	if handled, err := runSaveLoad(g, cmd, rest, func() string {
		return fmt.Sprintf("%d edge(s)", g.EdgeCount())
	}); handled {
		return err
	}
	switch cmd {
	case "quit", "exit":
		return errQuit

	case "edge":
		u, v, err := parsePair(rest)
		if err != nil {
			return err
		}
		if err := g.AddEdge(u, v); err != nil {
			return err
		}
		fmt.Printf("edge %d → %d\n", u, v)

	case "deledge":
		u, v, err := parsePair(rest)
		if err != nil {
			return err
		}
		if err := g.DeleteEdge(u, v); err != nil {
			return err
		}
		fmt.Printf("deleted edge %d → %d\n", u, v)

	case "has":
		u, v, err := parsePair(rest)
		if err != nil {
			return err
		}
		fmt.Println(g.HasEdge(u, v))

	case "succ":
		u, err := parseOne(rest)
		if err != nil {
			return err
		}
		fmt.Println(g.Neighbors(u))

	case "pred":
		v, err := parseOne(rest)
		if err != nil {
			return err
		}
		fmt.Println(g.ReverseNeighbors(v))

	case "stats":
		g.WaitIdle()
		printStats(g.Stats(), "edge", g.EdgeCount(), g.SizeBits(), nil)

	default:
		return fmt.Errorf("unknown command %q (edge deledge has succ pred save load stats quit)", cmd)
	}
	return nil
}
