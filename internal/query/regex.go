package query

import (
	"regexp/syntax"
	"unicode"
	"unicode/utf8"
)

// Required-literal analysis, in the spirit of Debian Code Search's
// query planner: decompose a regex into substrings that every match
// must contain, so the FM-index can filter candidate documents cheaply
// and the regexp engine only verifies documents that can possibly
// match.
//
// The result shape is a conjunction of disjunctions ("groups"): every
// match contains, for EACH group, at least ONE of that group's literals
// as a substring. A concatenation contributes the groups of its parts
// (all apply); an alternation folds its branches into one group (a
// match satisfies some branch, hence contains one of the union's
// literals). Sub-expressions that can match the empty string, case
// folds over letters, and character classes beyond a few runes
// contribute nothing; if nothing survives, the planner falls back to
// verifying every document — correctness never depends on the
// analysis, only performance does.

const (
	// maxGroups bounds the conjunction: more groups than this would
	// spend more time intersecting candidate sets than verification
	// saves. The strongest (longest-literal) groups are kept.
	maxGroups = 3
	// maxAlternatives bounds one group's disjunction; a wider
	// alternation (or a big character class) makes the group useless as
	// a filter, so it is dropped rather than enumerated.
	maxAlternatives = 8
)

// literalGroups runs the analysis over a simplified syntax tree. A nil
// result means no usable literal exists.
func literalGroups(re *syntax.Regexp) [][][]byte {
	// Longer minimum literal first: the executor counts the groups in
	// this order and leaves a sub-collection at the first one it lacks,
	// and only the maxGroups most selective are kept.
	groups := analyze(re)
	sortGroupsByStrength(groups)
	return groups[:min(len(groups), maxGroups)]
}

// analyze returns the required-literal groups of one subtree (nil =
// no information).
func analyze(re *syntax.Regexp) [][][]byte {
	switch re.Op {
	case syntax.OpLiteral:
		lit, ok := literalBytes(re)
		if !ok || len(lit) == 0 {
			return nil
		}
		return [][][]byte{{lit}}

	case syntax.OpCharClass:
		alts := classAlternatives(re)
		if alts == nil {
			return nil
		}
		return [][][]byte{alts}

	case syntax.OpConcat:
		// Every part's groups apply to the whole concatenation. Literals
		// spanning part boundaries are not recombined — Simplify already
		// merged adjacent literals, and missing a longer literal only
		// costs selectivity, never correctness.
		var groups [][][]byte
		for _, sub := range re.Sub {
			groups = append(groups, analyze(sub)...)
		}
		return groups

	case syntax.OpAlternate:
		// A match satisfies one branch, so the union of one group per
		// branch is required; every branch must contribute or the
		// alternation yields nothing.
		var union [][]byte
		for _, sub := range re.Sub {
			groups := analyze(sub)
			if len(groups) == 0 {
				return nil
			}
			union = append(union, bestGroup(groups)...)
			if len(union) > maxAlternatives {
				return nil
			}
		}
		return [][][]byte{union}

	case syntax.OpCapture:
		return analyze(re.Sub[0])

	case syntax.OpPlus:
		// x+ contains at least one x.
		return analyze(re.Sub[0])

	case syntax.OpRepeat:
		if re.Min >= 1 {
			return analyze(re.Sub[0])
		}
		return nil

	default:
		// OpStar, OpQuest, OpAnyChar*, anchors, word boundaries,
		// OpEmptyMatch: can match empty or any text — no required
		// literal.
		return nil
	}
}

// literalBytes renders an OpLiteral node as the UTF-8 bytes the regexp
// engine will match. A case-folded literal containing letters matches
// several byte strings, so it is unusable as a single required
// substring.
func literalBytes(re *syntax.Regexp) ([]byte, bool) {
	fold := re.Flags&syntax.FoldCase != 0
	buf := make([]byte, 0, len(re.Rune)*utf8.UTFMax)
	for _, r := range re.Rune {
		if fold && unicode.SimpleFold(r) != r {
			return nil, false
		}
		buf = utf8.AppendRune(buf, r)
	}
	return buf, true
}

// classAlternatives expands a small character class into one literal
// per rune; nil when the class is too wide to filter on.
func classAlternatives(re *syntax.Regexp) [][]byte {
	var alts [][]byte
	for i := 0; i+1 < len(re.Rune); i += 2 {
		lo, hi := re.Rune[i], re.Rune[i+1]
		if hi-lo >= maxAlternatives { // also guards the count below
			return nil
		}
		for r := lo; r <= hi; r++ {
			alts = append(alts, utf8.AppendRune(nil, r))
			if len(alts) > maxAlternatives {
				return nil
			}
		}
	}
	if len(alts) == 0 {
		return nil
	}
	return alts
}

// groupStrength scores a group by its weakest alternative: the filter
// is only as selective as its shortest literal.
func groupStrength(g [][]byte) int {
	s := int(^uint(0) >> 1)
	for _, lit := range g {
		if len(lit) < s {
			s = len(lit)
		}
	}
	return s
}

// bestGroup picks the strongest group of a conjunction.
func bestGroup(groups [][][]byte) [][]byte {
	best := groups[0]
	for _, g := range groups[1:] {
		if groupStrength(g) > groupStrength(best) {
			best = g
		}
	}
	return best
}

// sortGroupsByStrength orders groups descending by strength (insertion
// sort; maxGroups-scale inputs).
func sortGroupsByStrength(groups [][][]byte) {
	for i := 1; i < len(groups); i++ {
		for j := i; j > 0 && groupStrength(groups[j]) > groupStrength(groups[j-1]); j-- {
			groups[j], groups[j-1] = groups[j-1], groups[j]
		}
	}
}
