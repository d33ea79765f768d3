package fmindex

import (
	"fmt"
	"testing"

	"dyncoll/internal/sa"
	"dyncoll/internal/textgen"
)

// BenchmarkRebuildStages prices the stages of one store rebuild — read
// the source store back (materialize), suffix-sort it (sa), and build
// the index around the suffix array (build; the wavelet tree over the
// BWT is also timed alone, so BWT + samples is build − sa − wavelet) —
// on the bench corpus at the store sizes the ladder builds, over each
// tree shape (fm4's 4-ary tree, fm's binary one). The wavelet stage
// builds from counted frequencies, as Build does. DESIGN.md's "what a
// rebuild costs" tables are this benchmark's output.
func BenchmarkRebuildStages(b *testing.B) {
	for _, shape := range treeShapes {
		for _, size := range []int{26 << 10, 108 << 10, 460 << 10, 2 << 20} {
			rebuildStages(b, shape.name, size, shape.layout)
		}
	}
}

// rebuildStages runs BenchmarkRebuildStages at one store size over one
// tree shape.
func rebuildStages(b *testing.B, shape string, size int, layout Layout) {
	docs := textgen.NewCollection(textgen.CollectionOptions{Seed: 1}).GenerateTotal(size)
	opts := Options{Layout: layout}
	idx := Build(docs, opts)
	all := make([]int, idx.DocCount())
	for i := range all {
		all[i] = i
	}
	var text []byte
	for _, d := range docs {
		text = append(append(text, d.Data...), Sep)
	}
	bwt := make([]byte, len(text))
	freq := make([]int64, 256)
	for row, p := range sa.SuffixArray(text) {
		bwt[row] = text[(int(p)+len(text)-1)%len(text)]
		freq[bwt[row]]++
	}
	stage := func(name string, fn func()) {
		b.Run(fmt.Sprintf("%s/%s/%d", shape, name, size), func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
	}
	var ws sa.Workspace
	stage("materialize", func() { idx.AppendDocs(all, nil) })
	stage("sa", func() { sa.SuffixArrayWS(text, &ws) })
	stage("wavelet", func() { newSequence(bwt, freq, layout) })
	stage("build", func() { Build(docs, opts) })
}

// BenchmarkMergeStages prices the rebuilds of fmm indexes that do not
// sort (merge.go) on the bench corpus, over a 2 MiB base: merges of a
// store a sixty-fourth and a quarter of the base's size into it, and
// purges of a sixty-fourth and a quarter of its documents; beside each,
// a fresh build over what the rebuild keeps. Bytes are the rows kept.
func BenchmarkMergeStages(b *testing.B) {
	docs := textgen.NewCollection(textgen.CollectionOptions{Seed: 1}).GenerateTotal(5 << 19)
	opts := Options{Layout: FMM}
	cut := len(docs) / 5
	base := Build(docs[cut:], opts)
	quarter, tiny := Build(docs[:cut], opts), Build(docs[:(len(docs)-cut)/64], opts)
	keep := func(x *Index, every int) []int {
		var k []int
		for d := range x.DocCount() {
			if every == 0 || d%every != 0 {
				k = append(k, d)
			}
		}
		return k
	}
	all := keep(base, 0)
	for _, c := range []struct {
		name  string
		parts []part
	}{
		{"merge64", []part{{tiny, keep(tiny, 0)}, {base, all}}},
		{"merge4", []part{{quarter, keep(quarter, 0)}, {base, all}}},
		{"purge64", []part{{base, keep(base, 64)}}},
		{"purge4", []part{{base, keep(base, 4)}}},
	} {
		var kept []Doc
		rows := 0
		for _, p := range c.parts {
			for _, d := range p.Keep {
				kept = append(kept, Doc{ID: p.X.DocID(d), Data: p.X.Extract(d, 0, p.X.DocLen(d))})
				rows += p.X.DocLen(d) + 1
			}
		}
		for _, stage := range []struct {
			name string
			fn   func()
		}{
			{"rebuild", func() { rebuild(c.parts) }},
			{"build", func() { Build(kept, opts) }},
		} {
			b.Run(c.name+"/"+stage.name, func(b *testing.B) {
				b.SetBytes(int64(rows))
				for range b.N {
					stage.fn()
				}
			})
		}
	}
}
