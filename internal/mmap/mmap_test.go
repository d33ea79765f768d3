package mmap

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"
)

// writeTemp writes data to a new file and returns it opened for reading.
func writeTemp(t *testing.T, data []byte) *os.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func testData(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7 + i>>9)
	}
	return data
}

// TestOpenRoundTrip maps files of several sizes, checks the bytes, that
// the mapping outlives the file handle, and that Close releases it.
func TestOpenRoundTrip(t *testing.T) {
	page := os.Getpagesize()
	for _, n := range []int{0, 1, 4095, page, 3*page + 17} {
		data := testData(n)
		f := writeTemp(t, data)
		m, err := Open(f)
		if err != nil {
			t.Fatalf("n=%d: Open: %v", n, err)
		}
		f.Close()
		if !bytes.Equal(m.Data(), data) {
			t.Fatalf("n=%d: mapped bytes differ from the file", n)
		}
		if want := n > 0 && (runtime.GOOS == "linux" || runtime.GOOS == "darwin"); m.Mapped() != want {
			t.Fatalf("n=%d: Mapped() = %v, want %v", n, m.Mapped(), want)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("n=%d: Close: %v", n, err)
		}
		if m.Data() != nil || m.Mapped() {
			t.Fatalf("n=%d: mapping still visible after Close", n)
		}
	}
}

// TestOpenCopy checks the portable fallback: a heap copy of the whole
// file, not a mapping, that Close and DontNeed handle as one.
func TestOpenCopy(t *testing.T) {
	data := testData(3*os.Getpagesize() + 5)
	m, err := openCopy(writeTemp(t, data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Data(), data) || m.Mapped() {
		t.Fatalf("copy: %d bytes, mapped=%v", len(m.Data()), m.Mapped())
	}
	m.DontNeed(m.Data()) // a no-op on a copy
	if !bytes.Equal(m.Data(), data) {
		t.Fatal("DontNeed changed a heap copy")
	}
	if err := m.Close(); err != nil || m.Data() != nil {
		t.Fatalf("Close: %v, %d bytes left", err, len(m.Data()))
	}
}

// TestOffsets checks that a mapping starts on a page boundary — the
// alignment mapped sections rely on to alias 8-byte arrays in place —
// and that offsets are found only for slices inside the mapping.
func TestOffsets(t *testing.T) {
	page := os.Getpagesize()
	data := testData(4*page + 100)
	m, err := Open(writeTemp(t, data))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Mapped() && uintptr(unsafe.Pointer(&m.Data()[0]))%uintptr(page) != 0 {
		t.Fatal("mapping does not start on a page boundary")
	}
	d := m.Data()
	for _, c := range []struct{ lo, hi int }{{0, 1}, {1, 9}, {page - 1, page + 1}, {len(d) - 1, len(d)}, {0, len(d)}} {
		off, ok := m.contains(d[c.lo:c.hi])
		if !ok || off != c.lo {
			t.Fatalf("contains(d[%d:%d]) = %d, %v", c.lo, c.hi, off, ok)
		}
	}
	if _, ok := m.contains(bytes.Clone(d[:10])); ok {
		t.Fatal("contains accepted a copy")
	}
	if _, ok := m.contains(nil); ok {
		t.Fatal("contains accepted an empty slice")
	}
	// DontNeed rounds inward to whole pages and leaves the bytes readable:
	// the file still backs them.
	m.DontNeed(d[page/2 : 3*page+1])
	if !bytes.Equal(m.Data(), data) {
		t.Fatal("bytes differ after DontNeed")
	}
}
