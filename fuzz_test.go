package dyncoll

// Native fuzz targets. `go test` exercises the seed corpus; run
// `go test -fuzz=FuzzCollectionOps` (etc.) for open-ended fuzzing.

import (
	"bytes"
	"errors"
	"testing"

	"dyncoll/internal/oracle"
)

// FuzzCollectionOps interprets the input as a little op program over a
// collection and holds it to the oracle's model after replay.
func FuzzCollectionOps(f *testing.F) {
	f.Add([]byte{1, 5, 2, 3, 1, 4, 9, 9, 0, 2, 7})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{3, 1, 2}, 40))
	f.Fuzz(func(t *testing.T, program []byte) {
		c, err := NewCollection(WithSyncRebuilds(), WithSampleRate(3))
		if err != nil {
			t.Fatal(err)
		}
		var m oracle.Model
		var nextID uint64 = 1
		i := 0
		next := func() byte {
			if i >= len(program) {
				return 0
			}
			b := program[i]
			i++
			return b
		}
		for i < len(program) && nextID < 40 {
			op := next()
			switch op % 3 {
			case 0, 1: // insert a doc whose length and content derive from the program
				n := int(next())%24 + 1
				data := make([]byte, n)
				for j := range data {
					data[j] = next()%4 + 1
				}
				if err := c.Insert(Document{ID: nextID, Data: data}); err != nil {
					t.Fatalf("Insert(%d): %v", nextID, err)
				}
				m.Insert(Document{ID: nextID, Data: data})
				nextID++
			case 2: // delete some id (may be absent)
				id := uint64(next()) % (nextID + 1)
				err := c.Delete(id)
				if present := m.Delete(id); present && err != nil {
					t.Fatalf("Delete(%d) of live doc: %v", id, err)
				} else if !present && !errors.Is(err, ErrNotFound) {
					t.Fatalf("Delete(%d) of missing doc: got %v, want ErrNotFound", id, err)
				}
			}
		}
		// Verify with the model's probes and a derived pattern.
		if err := oracle.CheckDocs[Occurrence](&m, c, []byte{next()%4 + 1, next()%4 + 1}); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzRelationOps replays (object, label, op) triples against the
// oracle's pair model.
func FuzzRelationOps(f *testing.F) {
	f.Add([]byte{1, 2, 0, 1, 2, 1, 3, 4, 0})
	f.Add(bytes.Repeat([]byte{5, 6, 0}, 30))
	f.Fuzz(func(t *testing.T, program []byte) {
		r, err := NewRelation(WithMinCapacity(8))
		if err != nil {
			t.Fatal(err)
		}
		var m oracle.PairModel
		for i := 0; i+2 < len(program); i += 3 {
			o := uint64(program[i]) % 16
			l := uint64(program[i+1]) % 16
			if program[i+2]%2 == 0 {
				err := r.Add(o, l)
				if fresh := m.Add(o, l); !fresh && !errors.Is(err, ErrDuplicatePair) {
					t.Fatalf("Add(%d,%d) of present pair: got %v", o, l, err)
				} else if fresh && err != nil {
					t.Fatalf("Add(%d,%d) of fresh pair: %v", o, l, err)
				}
			} else {
				err := r.Delete(o, l)
				if was := m.Delete(o, l); was && err != nil {
					t.Fatalf("Delete(%d,%d) of present pair: %v", o, l, err)
				} else if !was && !errors.Is(err, ErrNotFound) {
					t.Fatalf("Delete(%d,%d) of missing pair: got %v", o, l, err)
				}
			}
		}
		if err := oracle.CheckPairs(&m, r); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzSnapshotRoundTrip interprets the input as an op program over a
// collection and a relation, snapshots both, reloads them, and checks
// the loaded structures answer identical queries. It then flips one
// input-derived byte of each snapshot and checks Load never panics on
// the mutation (it may error with ErrBadSnapshot or decode an
// equivalent structure when the byte was don't-care).
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add([]byte{1, 5, 2, 3, 1, 4, 9, 9, 0, 2, 7}, uint8(3))
	f.Add(bytes.Repeat([]byte{3, 1, 2, 9}, 30), uint8(200))
	f.Add([]byte{0}, uint8(0))
	// 40 inserts of 6 bytes and two deletes: the snapshot holds static
	// stores of the default fmz index, packed samples and all.
	f.Add(append(bytes.Repeat([]byte{0, 5, 1, 2, 3, 4, 1, 2}, 40), 2, 7, 2, 9), uint8(77))
	f.Fuzz(func(t *testing.T, program []byte, mutByte uint8) {
		c, err := NewCollection(WithSyncRebuilds(), WithMinCapacity(16), WithSampleRate(3))
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRelation(WithMinCapacity(8))
		if err != nil {
			t.Fatal(err)
		}
		var nextID uint64 = 1
		i := 0
		next := func() byte {
			if i >= len(program) {
				return 0
			}
			b := program[i]
			i++
			return b
		}
		for i < len(program) && nextID < 60 {
			switch op := next(); op % 4 {
			case 0, 1:
				n := int(next())%24 + 1
				data := make([]byte, n)
				for j := range data {
					data[j] = next()%4 + 1
				}
				if err := c.Insert(Document{ID: nextID, Data: data}); err != nil {
					t.Fatalf("Insert(%d): %v", nextID, err)
				}
				nextID++
			case 2:
				_ = c.Delete(uint64(next()) % (nextID + 1))
			case 3:
				o, l := uint64(next())%16, uint64(next())%16
				if next()%2 == 0 {
					_ = r.Add(o, l)
				} else {
					_ = r.Delete(o, l)
				}
			}
		}
		c.WaitIdle()

		var cbuf, rbuf bytes.Buffer
		if err := c.Save(&cbuf); err != nil {
			t.Fatalf("collection Save: %v", err)
		}
		if err := r.Save(&rbuf); err != nil {
			t.Fatalf("relation Save: %v", err)
		}

		lc, _ := NewCollection()
		if err := lc.Load(bytes.NewReader(cbuf.Bytes())); err != nil {
			t.Fatalf("collection Load: %v", err)
		}
		p := []byte{next()%4 + 1, next()%4 + 1}
		if got, want := lc.Count(p), c.Count(p); got != want {
			t.Fatalf("loaded Count(%v) = %d, want %d", p, got, want)
		}
		if got, want := len(lc.Find(p[:1])), len(c.Find(p[:1])); got != want {
			t.Fatalf("loaded Find = %d occs, want %d", got, want)
		}
		if lc.DocCount() != c.DocCount() || lc.Len() != c.Len() {
			t.Fatalf("loaded shape %d/%d, want %d/%d", lc.DocCount(), lc.Len(), c.DocCount(), c.Len())
		}
		lr, _ := NewRelation()
		if err := lr.Load(bytes.NewReader(rbuf.Bytes())); err != nil {
			t.Fatalf("relation Load: %v", err)
		}
		if lr.Len() != r.Len() {
			t.Fatalf("loaded relation Len = %d, want %d", lr.Len(), r.Len())
		}
		for o := uint64(0); o < 16; o++ {
			if lr.CountLabels(o) != r.CountLabels(o) {
				t.Fatalf("loaded CountLabels(%d) diverges", o)
			}
		}

		// Save∘Load∘Save is a fixed point: a snapshot is a function of
		// the structure, not of how it got there.
		var cagain, ragain bytes.Buffer
		if err := errors.Join(lc.Save(&cagain), lr.Save(&ragain)); err != nil {
			t.Fatalf("re-Save: %v", err)
		}
		if !bytes.Equal(cagain.Bytes(), cbuf.Bytes()) || !bytes.Equal(ragain.Bytes(), rbuf.Bytes()) {
			t.Fatal("Save∘Load∘Save is not a fixed point")
		}

		// Mutations must never panic.
		for _, data := range [][]byte{cbuf.Bytes(), rbuf.Bytes()} {
			if len(data) == 0 {
				continue
			}
			mut := append([]byte(nil), data...)
			pos := (int(mutByte)*131 + len(program)) % len(mut)
			mut[pos] ^= 1 << (mutByte % 8)
			mc, _ := NewCollection()
			_ = mc.Load(bytes.NewReader(mut))
			mr, _ := NewRelation()
			_ = mr.Load(bytes.NewReader(mut))
		}
	})
}

// FuzzPatternSearch builds one document from the input and checks every
// substring of it is found at the right offsets.
func FuzzPatternSearch(f *testing.F) {
	f.Add([]byte("abracadabra"), uint8(2), uint8(3))
	f.Add([]byte{1, 1, 1, 1, 1, 1}, uint8(0), uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, offRaw, lenRaw uint8) {
		if len(raw) == 0 || len(raw) > 500 {
			return
		}
		data := make([]byte, len(raw))
		for i, b := range raw {
			data[i] = b%7 + 1
		}
		c, err := NewCollection(WithSyncRebuilds())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Insert(Document{ID: 1, Data: data}); err != nil {
			t.Fatal(err)
		}
		off := int(offRaw) % len(data)
		l := int(lenRaw)%8 + 1
		if off+l > len(data) {
			l = len(data) - off
		}
		if l == 0 {
			return
		}
		p := data[off : off+l]
		occs := c.Find(p)
		found := false
		for _, o := range occs {
			if o.DocID != 1 || o.Off < 0 || o.Off+l > len(data) {
				t.Fatalf("bad occurrence %+v", o)
			}
			if !bytes.Equal(data[o.Off:o.Off+l], p) {
				t.Fatalf("occurrence at %d does not match", o.Off)
			}
			if o.Off == off {
				found = true
			}
		}
		if !found {
			t.Fatalf("planted occurrence at %d missing", off)
		}
	})
}
