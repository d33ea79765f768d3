package main

import (
	"math"
	"math/rand"
	"regexp"

	"dyncoll"
	"dyncoll/internal/textgen"
)

// Operation classes. A search is one regex plan and one ranked top-k
// plan run back to back and timed as a pair: timing them as separate
// samples would put the class median in the gap between two modes.
const (
	opCount = iota
	opFind
	opExtract
	opSearch
	opInsert
	opDelete
	numClasses
)

var classNames = [numClasses]string{"count", "find", "extract", "search", "insert", "delete"}

const (
	findLimit  = 100 // FindLimit / find?limit=
	extractLen = 256 // bytes per extract
	topK       = 10  // k of the ranked plan
	findLen    = 6   // find pattern length: common enough to reach the limit
	searchLit  = 9   // literal length of the ranked plan and each regex half
	searchGap  = 2   // bytes the regex lets vary between its two literals
	checkEvery = 50  // one read in this many is verified against the model
)

// op is one request of the op stream.
type op struct {
	class   uint8
	check   bool               // answer is recorded and verified after the run
	pattern []byte             // count, find, search
	id      uint64             // extract
	off     int                // extract
	docs    []dyncoll.Document // insert
	ids     []uint64           // delete
}

// regex is the search op's regex plan: the planted text with its middle
// bytes free, so both halves are required literals the planner can use.
func (o *op) regex() string {
	p := o.pattern
	return "(?s)" + regexp.QuoteMeta(string(p[:searchLit])) + ".{0," + string(rune('0'+searchGap)) + "}" +
		regexp.QuoteMeta(string(p[searchLit+searchGap:]))
}

// answer is what the system returned for one op.
type answer struct {
	n      int // count, or documents deleted
	occs   []dyncoll.Occurrence
	data   []byte
	regex  []dyncoll.Match
	ranked []dyncoll.Match
	err    error
}

// lengths is a workload's sequence of document lengths: bounded Zipf
// (most documents short, a heavy tail up to maxLen, the shape textgen
// draws), from a source that does not depend on the run's seed. The seed
// chooses the text, the patterns and the order of ops; the sizes are part
// of the workload. Every seed therefore walks the ladder through the same
// sequence of merges. When lengths followed the seed, which merge a run's
// last round or its restart happened to hit was luck: durable_restart's
// reopen_s read 0.13 s on one seed and 0.23 s on the next.
type lengths struct {
	rng            *rand.Rand
	minLen, maxLen int
}

// newLengths returns the sequence of the preload (who < 0) or of the
// documents client who inserts.
func newLengths(w *workload, who int) *lengths {
	return &lengths{rng: rand.New(rand.NewSource(int64(who) + 2)), minLen: w.minLen, maxLen: w.maxLen}
}

func (l *lengths) next() int {
	span := l.maxLen - l.minLen
	if span <= 0 {
		return l.minLen
	}
	n := int(math.Pow(float64(span), 1-l.rng.Float64()))
	return l.minLen + min(max(n, 1), span) - 1
}

// client is one closed-loop caller: it generates its own op stream from
// its own random source and document IDs, so with several clients each
// stream is the same whatever the interleaving.
type client struct {
	w     *workload
	id    int // index among the workload's clients; sets its document ID range
	rng   *rand.Rand
	src   *textgen.Collection // text of the documents this client inserts
	lens  *lengths            // and their lengths
	base  []dyncoll.Document  // preloaded documents that are never deleted
	fifo  []dyncoll.Document  // deletable documents, oldest first
	reads int
}

// newClient gives client i of n its share of the preload. Under
// deleteRecent only documents the client inserted itself are deleted, so
// the preload is never touched; otherwise the preload is the head of the
// FIFO and the whole corpus turns over.
func newClient(w *workload, seed int64, i, n int, preload []dyncoll.Document) *client {
	c := &client{
		w:    w,
		id:   i,
		rng:  rand.New(rand.NewSource(seed*7919 + int64(i) + 1)),
		src:  textgen.NewCollection(textgen.CollectionOptions{Seed: seed*104729 + int64(i) + 1}),
		lens: newLengths(w, i),
	}
	var mine []dyncoll.Document
	for j := i; j < len(preload); j += n {
		mine = append(mine, preload[j])
	}
	if w.deleteRecent {
		// Two batches of the preload prime the FIFO, so a delete removes
		// the batch inserted two writes earlier.
		keep := len(mine) - 2*w.batch
		c.base, c.fifo = mine[:keep:keep], mine[keep:]
	} else {
		c.fifo = mine
	}
	return c
}

// idBase keeps client i's new document IDs clear of the preload's and of
// the other clients'.
func idBase(i int) uint64 { return uint64(i+1) << 40 }

// liveDoc picks a document that is live now and stays live for the rest
// of this op.
func (c *client) liveDoc() dyncoll.Document {
	i := c.rng.Intn(len(c.base) + len(c.fifo))
	if i < len(c.base) {
		return c.base[i]
	}
	return c.fifo[i-len(c.base)]
}

// planted returns n consecutive bytes of some live document, so the
// pattern occurs at least once when the op runs.
func (c *client) planted(n int) []byte {
	for {
		d := c.liveDoc()
		if len(d.Data) >= n {
			off := c.rng.Intn(len(d.Data) - n + 1)
			return d.Data[off : off+n]
		}
	}
}

// round generates the next round of the stream: the workload's fixed
// number of ops per class in a seeded order. Deletes are spread evenly
// over the write slots and each removes what the inserts between two
// deletes add, so a delete always finds its documents and the
// collection's size is the same at every round boundary. div > 1 makes a
// shorter round of the same mix (the tail round).
func (c *client) round(div int) []*op {
	w := c.w
	var classes []uint8
	for class, n := range w.mix {
		if class == opDelete {
			class = opInsert // a write slot; which kind is decided below
		}
		for range n / div {
			classes = append(classes, uint8(class))
		}
	}
	c.rng.Shuffle(len(classes), func(a, b int) { classes[a], classes[b] = classes[b], classes[a] })
	ops := make([]*op, len(classes))
	writes, dels := 0, w.mix[opDelete]/div
	slots := w.mix[opInsert]/div + dels
	for k, class := range classes {
		o := &op{class: class}
		switch class {
		case opCount:
			o.pattern = c.planted(4 + c.rng.Intn(9))
		case opFind:
			o.pattern = c.planted(findLen)
		case opSearch:
			o.pattern = c.planted(2*searchLit + searchGap)
		case opExtract:
			d := c.liveDoc()
			o.id = d.ID
			o.off = c.rng.Intn(max(len(d.Data)-extractLen, 0) + 1)
		case opInsert:
			if (writes+1)*dels/slots > writes*dels/slots {
				o.class = opDelete
				n := w.deleteBatch()
				for _, d := range c.fifo[:n] {
					o.ids = append(o.ids, d.ID)
				}
				c.fifo = c.fifo[n:]
			} else {
				for range w.batch {
					d := c.src.NextDocLen(c.lens.next())
					d.ID += idBase(c.id)
					o.docs = append(o.docs, d)
				}
				c.fifo = append(c.fifo, o.docs...)
			}
			writes++
		}
		if o.class < opInsert {
			c.reads++
			o.check = c.reads%checkEvery == 0
		}
		ops[k] = o
	}
	c.src.Docs = c.src.Docs[:0] // the generator's own record of what it made is not needed
	return ops
}

// verifyPass generates the fixed pass run before close and after every
// reopen: counts, extracts and ranked searches, whose answers do not
// depend on enumeration order and so must repeat exactly.
func (c *client) verifyPass(n int) []*op {
	ops := make([]*op, n)
	for k := range ops {
		switch {
		case k%8 == 7:
			ops[k] = &op{class: opSearch, pattern: c.planted(2*searchLit + searchGap)}
		case k%2 == 0:
			ops[k] = &op{class: opCount, pattern: c.planted(4 + c.rng.Intn(9))}
		default:
			d := c.liveDoc()
			ops[k] = &op{class: opExtract, id: d.ID, off: c.rng.Intn(max(len(d.Data)-extractLen, 0) + 1)}
		}
	}
	return ops
}
