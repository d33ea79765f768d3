package core

import (
	"dyncoll/internal/doc"
	"dyncoll/internal/engine"
)

// liveIndex is a SemiDynamic snapshot's Source: the static index and
// the documents of it live at the snapshot, ascending.
type liveIndex struct {
	idx  StaticIndex
	live []int
}

// merger is the optional rebuild path that sorts nothing: an index
// (fmindex's fmm) that builds the index over chosen documents of
// several indexes of its own kind, in order, from their sorted forms,
// equal to what a build over those documents would give. Each of parts
// is an index, of which MergeDocs keeps the documents keep[i], or a
// []doc.Doc, which it builds first. It reports false, having built
// nothing, unless every index part is of the receiver's kind.
type merger interface {
	MergeDocs(parts []any, keep [][]int) (any, bool)
}

// buildFrom builds the index over the documents of src, in order, and
// returns it with the weight it sorted. When src's indexed sources are
// indexes that merge, each run of other sources — C0's documents,
// parked updates — is built on its own and merged with them, so only
// those runs are sorted; a build with no indexed source, or with one
// that does not merge, materializes and sorts everything.
func buildFrom(build Builder, src []engine.Snapshot[doc.Doc]) (StaticIndex, int) {
	var m merger
	for _, sn := range src {
		if li, ok := sn.Source.(liveIndex); ok {
			m, _ = li.idx.(merger)
			break
		}
	}
	if m != nil {
		var parts []any
		var keep [][]int
		var run []doc.Doc
		sorted := 0
		for _, sn := range src {
			li, ok := sn.Source.(liveIndex)
			if !ok {
				run = sn.Materialize(run)
				sorted += sn.Weight
				continue
			}
			if len(run) > 0 {
				parts, keep, run = append(parts, run), append(keep, nil), nil
			}
			parts, keep = append(parts, li.idx), append(keep, li.live)
		}
		if len(run) > 0 {
			parts, keep = append(parts, run), append(keep, nil)
		}
		if out, ok := m.MergeDocs(parts, keep); ok {
			return out.(StaticIndex), sorted
		}
	}
	docs, weight := engine.Materialize(src)
	return build(docs), weight
}
