package wavelet

import (
	"math/bits"

	"dyncoll/internal/huffman"
)

// The balanced tree is the tests' fixed-width reference shape: every
// symbol of [0, sigma) takes ⌈log₂ σ⌉ levels, whatever its frequency.

// NewBalanced builds a balanced wavelet tree of s over alphabet [0, sigma).
func NewBalanced(s []uint32, sigma int) *Tree {
	return scatter(s, balancedCodes(sigma), frequencies(s, sigma))
}

// NewBalancedBytes builds a balanced tree over a byte string with
// alphabet [0, sigma).
func NewBalancedBytes(s []byte, sigma int) *Tree {
	return scatter(s, balancedCodes(sigma), frequencies(s, sigma))
}

// balancedCodes assigns every symbol of [0, sigma) its fixed-width
// ⌈log₂ σ⌉-bit code (zero-length codes for the single-symbol alphabet,
// which yields a leaf-only tree).
func balancedCodes(sigma int) []huffman.Code {
	if sigma < 1 {
		panic("wavelet: sigma must be ≥ 1")
	}
	w := bits.Len(uint(sigma - 1))
	codes := make([]huffman.Code, sigma)
	for c := range codes {
		codes[c] = huffman.Code{Symbol: c, Len: w, Bits: uint64(c)}
	}
	return codes
}
