package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// sample is one value of every primitive the varint codec has.
type sample struct {
	b      byte
	raw    []byte
	u      uint64
	v      int64
	t, f   bool
	blob   []byte
	s      string
	i32    []int32
	u64    []uint64
	words  []uint64
	n      int
	count  int
	nested []byte
}

var want = sample{
	b: 0xfe, raw: []byte("dsnp"), u: math.MaxUint64, v: math.MinInt64, t: true,
	blob: []byte("blob\x00bytes"), s: "index-name",
	i32: []int32{0, -1, math.MaxInt32, math.MinInt32}, u64: []uint64{0, 1, 1 << 63},
	words: []uint64{0xdeadbeefcafef00d, 0}, n: math.MaxInt, count: 3, nested: []byte{1, 2, 3},
}

func encodeSample(s sample) []byte {
	var e Encoder
	e.Byte(s.b)
	e.Raw(s.raw)
	e.Uvarint(s.u)
	e.Varint(s.v)
	e.Bool(s.t)
	e.Bool(s.f)
	e.Blob(s.blob)
	e.String(s.s)
	e.Int32s(s.i32)
	e.Uint64s(s.u64)
	e.Words(s.words)
	e.Uvarint(uint64(s.n))
	e.Uvarint(uint64(s.count))
	e.Raw(s.nested)
	if e.Len() != len(e.Bytes()) {
		panic("Len disagrees with Bytes")
	}
	return e.Bytes()
}

// decodeSample is the straight-line read the package doc promises is
// safe: no error checks until the end.
func decodeSample(data []byte) (sample, *Decoder) {
	d := NewDecoder(data)
	var s sample
	s.b = d.Byte()
	s.raw = d.Raw(4)
	s.u = d.Uvarint()
	s.v = d.Varint()
	s.t = d.Bool()
	s.f = d.Bool()
	s.blob = d.Blob()
	s.s = d.String()
	s.i32 = d.Int32s()
	s.u64 = d.Uint64s()
	s.words = d.Words()
	s.n = d.Int()
	s.count = d.Count(1)
	s.nested = d.Raw(s.count)
	return s, d
}

func TestEncoderDecoderRoundTrip(t *testing.T) {
	got, d := decodeSample(encodeSample(want))
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left over", d.Remaining())
	}
	if got.b != want.b || got.u != want.u || got.v != want.v || got.t != want.t || got.f != want.f ||
		got.s != want.s || got.n != want.n || got.count != want.count ||
		!bytes.Equal(got.raw, want.raw) || !bytes.Equal(got.blob, want.blob) || !bytes.Equal(got.nested, want.nested) ||
		!slices.Equal(got.i32, want.i32) || !slices.Equal(got.u64, want.u64) || !slices.Equal(got.words, want.words) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	for _, v := range []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64} {
		var e Encoder
		e.Varint(v)
		if got := NewDecoder(e.Bytes()).Varint(); got != v {
			t.Fatalf("Varint(%d) came back %d", v, got)
		}
	}
}

// allocated reports the heap bytes fn allocates, as the least over
// five calls: TotalAlloc is the process's, and a goroutine an earlier
// test left behind can only add to it. fn must do the same work on
// every call.
func allocated(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestDecoderTruncationSweep: every proper prefix of a valid stream
// latches ErrBadSnapshot somewhere in the straight-line read — never a
// panic — later reads are inert, and nothing the prefix claims can make
// the decoder allocate more than a small multiple of the prefix itself.
func TestDecoderTruncationSweep(t *testing.T) {
	data := encodeSample(want)
	for cut := 0; cut < len(data); cut++ {
		var d *Decoder
		n := allocated(func() { _, d = decodeSample(data[:cut]) })
		if !errors.Is(d.Err(), ErrBadSnapshot) {
			t.Fatalf("prefix %d/%d: err = %v, want ErrBadSnapshot", cut, len(data), d.Err())
		}
		if d.Byte() != 0 || d.Uvarint() != 0 || d.Blob() != nil || d.Uint64s() != nil {
			t.Fatalf("prefix %d: reads after the error are not inert", cut)
		}
		if limit := uint64(16*cut + 1024); n > limit {
			t.Fatalf("prefix %d: decoding allocated %d bytes (limit %d)", cut, n, limit)
		}
	}
}

// TestDecoderHostileCounts: a count far beyond the input fails before
// anything is sized from it.
func TestDecoderHostileCounts(t *testing.T) {
	var e Encoder
	e.Uvarint(1 << 40)
	e.Raw(make([]byte, 64))
	reads := map[string]func(d *Decoder){
		"Blob":    func(d *Decoder) { d.Blob() },
		"String":  func(d *Decoder) { _ = d.String() },
		"Int32s":  func(d *Decoder) { d.Int32s() },
		"Uint64s": func(d *Decoder) { d.Uint64s() },
		"Words":   func(d *Decoder) { d.Words() },
		"Count":   func(d *Decoder) { d.Count(2) },
		"Raw":     func(d *Decoder) { d.Raw(d.Int()) },
	}
	for name, read := range reads {
		var d *Decoder
		if n := allocated(func() { d = NewDecoder(e.Bytes()); read(d) }); n > 1024 {
			t.Fatalf("%s: allocated %d bytes for a 70-byte input", name, n)
		}
		if !errors.Is(d.Err(), ErrBadSnapshot) {
			t.Fatalf("%s: err = %v, want ErrBadSnapshot", name, d.Err())
		}
	}
	for name, data := range map[string][]byte{
		"varint overflow":   bytes.Repeat([]byte{0xff}, 11),
		"varint 65th bit":   append(bytes.Repeat([]byte{0xff}, 9), 0x02),
		"int overflow":      append(bytes.Repeat([]byte{0xff}, 9), 0x01),
		"int32 overflow":    {1, 0x80, 0x80, 0x80, 0x80, 0x20},
		"negative raw read": nil,
	} {
		d := NewDecoder(data)
		switch name {
		case "int overflow":
			d.Int()
		case "int32 overflow":
			d.Int32s()
		case "negative raw read":
			d.Raw(-1)
		default:
			d.Uvarint()
		}
		if !errors.Is(d.Err(), ErrBadSnapshot) {
			t.Fatalf("%s: err = %v, want ErrBadSnapshot", name, d.Err())
		}
	}
	d := NewDecoder(nil)
	d.Fail("level %d", 3)
	d.Fail("second")
	if err := d.Err(); !errors.Is(err, ErrBadSnapshot) || err.Error() != "bad snapshot: level 3" {
		t.Fatalf("Fail latched %v", err)
	}
}

// v2Image lays four sections — one of each kind — into a v2 container.
func v2Image(t *testing.T) ([]byte, [][]byte) {
	t.Helper()
	var me MapEncoder
	me.Words([]uint64{1, 2, 3})
	bodies := [][]byte{[]byte("header"), []byte("spine bytes"), {}, me.Bytes()}
	w := NewV2Writer()
	w.Add(SecHeader, 0, 0, bodies[0])
	w.Add(SecSpine, 0, 0, bodies[1])
	w.Add(SecStoreMeta, 0, 0, bodies[2])
	w.Add(SecStorePayload, 0, 0, bodies[3])
	var out bytes.Buffer
	n, err := w.WriteTo(&out)
	if err != nil || int(n) != out.Len() {
		t.Fatalf("WriteTo = (%d, %v) for %d bytes", n, err, out.Len())
	}
	return out.Bytes(), bodies
}

// reseal rewrites directory entry i of a valid image and recomputes the
// directory checksum, so OpenV2 gets to judge the entry itself.
func reseal(img []byte, i int, edit func(e *SectionEntry)) []byte {
	img = bytes.Clone(img)
	f, err := OpenV2(img)
	if err != nil {
		panic(err)
	}
	edit(&f.Entries[i])
	dirOff := binary.LittleEndian.Uint64(img[8:])
	dir := img[dirOff:dirOff]
	for _, e := range f.Entries {
		dir = appendEntry(dir, e)
	}
	binary.LittleEndian.PutUint32(img[24:], crc32.Checksum(dir, castagnoli))
	return img
}

func TestOpenV2(t *testing.T) {
	img, bodies := v2Image(t)
	f, err := OpenV2(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.VerifyPayloads(); err != nil {
		t.Fatal(err)
	}
	for i, e := range f.Entries {
		if e.Offset%SectionAlign != 0 || !bytes.Equal(f.Section(e), bodies[i]) {
			t.Fatalf("section %d at %d: %q, want %q", i, e.Offset, f.Section(e), bodies[i])
		}
	}

	payload := f.Entries[3]
	bad := map[string][]byte{
		"truncated superblock": img[:superblockSize-1],
		"v1 magic":             append(bytes.Clone(Magic[:]), img[4:]...),
		"directory cut short":  img[:len(img)-1],
		"bad entry CRC":        reseal(img, 1, func(e *SectionEntry) { e.CRC++ }),
		"offset out of range":  reseal(img, 1, func(e *SectionEntry) { e.Offset = uint64(len(img)) + 8 }),
		"length out of range":  reseal(img, 1, func(e *SectionEntry) { e.Length = math.MaxUint64 - 8 }),
		"misaligned section":   reseal(img, 1, func(e *SectionEntry) { e.Offset += 4; e.Length -= 4 }),
		"impossible count":     bytes.Clone(img),
		"directory off file":   bytes.Clone(img),
		"unsealed entry edit":  bytes.Clone(img),
		"flipped section byte": bytes.Clone(img),
	}
	binary.LittleEndian.PutUint64(bad["impossible count"][16:], math.MaxUint64/2)
	binary.LittleEndian.PutUint64(bad["directory off file"][8:], uint64(len(img))+1)
	bad["unsealed entry edit"][len(img)-1] ^= 1
	bad["flipped section byte"][f.Entries[1].Offset] ^= 1
	for name, data := range bad {
		if _, err := OpenV2(data); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", name, err)
		}
	}

	// Payload sections are trusted at open and checked on demand.
	flipped := bytes.Clone(img)
	flipped[payload.Offset+8] ^= 1
	g, err := OpenV2(flipped)
	if err != nil {
		t.Fatalf("open with a flipped payload byte: %v", err)
	}
	if err := g.VerifyPayloads(); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("VerifyPayloads = %v, want ErrBadSnapshot", err)
	}

	// Overlap is not this layer's business: sections are immutable views
	// and two entries over the same checksummed bytes are two views of
	// them. What each kind may appear how often is the facade's check
	// (splitV2 rejects duplicates).
	over, err := OpenV2(reseal(img, 2, func(e *SectionEntry) { *e = f.Entries[1]; e.Kind = SecStoreMeta }))
	if err != nil {
		t.Fatalf("overlapping sections: %v", err)
	}
	if a, b := over.Section(over.Entries[1]), over.Section(over.Entries[2]); !bytes.Equal(a, b) || len(a) == 0 {
		t.Fatalf("overlapping views differ: %q vs %q", a, b)
	}
}

func TestMapViewRoundTripAndMisaligned(t *testing.T) {
	var e MapEncoder
	e.U64(42)
	e.Blob([]byte("odd"))
	e.Words([]uint64{1, 1 << 63})
	e.Int64s([]int64{-1, math.MinInt64})
	e.Int32s([]int32{-7, 8, 9})
	e.Words(nil)
	if e.Len()%8 != 0 || e.Len() != len(e.Bytes()) {
		t.Fatalf("encoder left %d bytes, not 8-aligned", e.Len())
	}
	// The same payload at an 8-aligned and at an odd address: the view
	// aliases the first and must fall back to copying for the second.
	backing := make([]byte, e.Len()+16)
	off := 0
	for uintptr(unsafe.Pointer(&backing[off]))%8 != 0 {
		off++
	}
	for _, shift := range []int{0, 1, 4} {
		p := backing[off+shift : off+shift+e.Len()]
		copy(p, e.Bytes())
		v := NewMapView(p)
		if got := v.U64(); got != 42 {
			t.Fatalf("shift %d: U64 = %d", shift, got)
		}
		if got := v.Blob(); string(got) != "odd" {
			t.Fatalf("shift %d: Blob = %q", shift, got)
		}
		words := v.Words()
		if !slices.Equal(words, []uint64{1, 1 << 63}) {
			t.Fatalf("shift %d: Words = %v", shift, words)
		}
		if aliased := unsafe.Pointer(&words[0]) == unsafe.Pointer(&p[32]); aliased != (shift == 0 && hostLittle) {
			t.Fatalf("shift %d: Words aliased = %v", shift, aliased)
		}
		if got := v.Int64s(); !slices.Equal(got, []int64{-1, math.MinInt64}) {
			t.Fatalf("shift %d: Int64s = %v", shift, got)
		}
		if got := v.Int32s(); !slices.Equal(got, []int32{-7, 8, 9}) {
			t.Fatalf("shift %d: Int32s = %v", shift, got)
		}
		if got := v.Words(); got != nil || v.Err() != nil || v.Remaining() != 0 || len(v.Data()) != e.Len() {
			t.Fatalf("shift %d: tail = %v, err %v, %d left", shift, got, v.Err(), v.Remaining())
		}
	}
	// Truncation and hostile lengths latch ErrBadSnapshot, never panic.
	for cut := 0; cut < e.Len(); cut++ {
		v := NewMapView(e.Bytes()[:cut])
		v.U64()
		v.Blob()
		v.Words()
		v.Int64s()
		v.Int32s()
		v.Words()
		if !errors.Is(v.Err(), ErrBadSnapshot) {
			t.Fatalf("prefix %d: err = %v, want ErrBadSnapshot", cut, v.Err())
		}
	}
	huge := binary.LittleEndian.AppendUint64(nil, math.MaxUint64)
	for name, read := range map[string]func(v *MapView){
		"Int":   func(v *MapView) { v.Int() },
		"Words": func(v *MapView) { v.Words() },
		"Blob":  func(v *MapView) { v.Blob() },
	} {
		v := NewMapView(huge)
		read(v)
		if !errors.Is(v.Err(), ErrBadSnapshot) {
			t.Fatalf("%s of a huge length: err = %v", name, v.Err())
		}
	}
}
