//go:build linux || darwin

package wavelet

import (
	"math/rand"
	"os"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// TestQuadRankStaysInsideWords puts a level's digit words at the very
// end of a read-only page followed by an inaccessible one — as mapped
// words can end where a read-only mapping ends — and runs the kernel
// at every position, for word counts that leave the last quarter short
// by every amount. A read past the last word faults, and the fault
// fails the test.
func TestQuadRankStaysInsideWords(t *testing.T) {
	page := os.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("anonymous mapping unavailable: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect unavailable: %v", err)
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	rng := rand.New(rand.NewSource(38))
	for nw := 1; nw <= 13; nw++ {
		if err := syscall.Mprotect(mem[:page], syscall.PROT_READ|syscall.PROT_WRITE); err != nil {
			t.Fatal(err)
		}
		words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[page-8*nw])), nw)
		n := 32*nw - rng.Intn(32)
		copy(words, randomDigits(rng, n, 0.3))
		if err := syscall.Mprotect(mem[:page], syscall.PROT_READ); err != nil {
			t.Fatal(err)
		}
		lv := newQuadLevel(words, n)
		checkLevelKernel(t, "guarded", &lv)
	}
}
