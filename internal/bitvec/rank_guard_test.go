//go:build linux || darwin

package bitvec

import (
	"math/rand"
	"os"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// TestRankStaysInsideWords puts a vector's words at the very end of a
// read-only page that is followed by an inaccessible one — as mapped
// words can end where a read-only mapping ends — and ranks at every
// position, for word counts that leave the last quarter short by every
// amount. A read past the last word faults, and the fault fails the
// test.
func TestRankStaysInsideWords(t *testing.T) {
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
	rng := rand.New(rand.NewSource(27))
	for nw := 1; nw <= 13; nw++ {
		if err := syscall.Mprotect(mem[:page], syscall.PROT_READ|syscall.PROT_WRITE); err != nil {
			t.Fatal(err)
		}
		words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[page-8*nw])), nw)
		n := 64*nw - rng.Intn(64)
		copy(words, randomWords(rng, n, 0.5))
		if err := syscall.Mprotect(mem[:page], syscall.PROT_READ); err != nil {
			t.Fatal(err)
		}
		checkRankKernel(t, FromWords(words, n))
	}
}
