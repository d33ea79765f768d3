package dyncoll

import (
	"flag"
	"fmt"
	"path/filepath"
	"testing"

	"dyncoll/internal/oracle"
)

var updateGolden = flag.Bool("update-golden", false, "regenerate testdata/golden_v1.snap and golden_v2.snap")

// goldenCollection builds the fixed structure the golden snapshot
// holds. Changing this corpus requires regenerating the golden file
// (go test -run TestGoldenSnapshot -update-golden) and re-pinning the
// assertions below.
func goldenCollection(t *testing.T, m *oracle.Model) *Collection {
	t.Helper()
	c := mustCollection(t,
		WithIndex(IndexFM),
		WithTransformation(WorstCase),
		WithSyncRebuilds(),
		WithMinCapacity(16),
		WithTau(4),
	)
	for i := uint64(1); i <= 24; i++ {
		d := Document{ID: i, Data: []byte(fmt.Sprintf("golden abracadabra %d", i))}
		mustInsert(t, c, d)
		m.Insert(d)
	}
	for _, id := range []uint64{5, 12} {
		must(t, c.Delete(id))
		m.Delete(id)
	}
	c.WaitIdle()
	return c
}

// TestGoldenSnapshotCompat pins the version-1 snapshot format: the
// committed golden file must keep loading, with the exact query answers
// recorded when it was written. A failure here means the format changed
// incompatibly — bump snap.Version and write a migration path instead
// of regenerating the golden file in place.
func TestGoldenSnapshotCompat(t *testing.T) {
	path := filepath.Join("testdata", "golden_v1.snap")
	if *updateGolden {
		c := goldenCollection(t, new(oracle.Model))
		if err := c.SaveFile(path); err != nil {
			t.Fatalf("regenerating golden: %v", err)
		}
		t.Logf("rewrote %s", path)
	}

	c := mustCollection(t)
	if err := c.LoadFile(path); err != nil {
		t.Fatalf("golden snapshot no longer loads: %v", err)
	}
	if got := c.DocCount(); got != 22 {
		t.Fatalf("DocCount = %d, want 22", got)
	}
	if got := c.Len(); got != 454 {
		t.Fatalf("Len = %d, want 454", got)
	}
	if got := c.Count([]byte("abracadabra")); got != 22 {
		t.Fatalf("Count(abracadabra) = %d, want 22", got)
	}
	if got := c.Count([]byte("golden")); got != 22 {
		t.Fatalf("Count(golden) = %d, want 22", got)
	}
	if got := c.Count([]byte(" 1")); got != 10 {
		t.Fatalf("Count(\" 1\") = %d, want 10", got)
	}
	if c.Has(5) || c.Has(12) || !c.Has(24) {
		t.Fatal("deleted/live document state diverges from the golden corpus")
	}
	data, ok := c.Extract(7, 0, 6)
	if !ok || string(data) != "golden" {
		t.Fatalf("Extract(7) = %q, %v", data, ok)
	}
	// The loaded structure answers what the model of its corpus answers.
	var m oracle.Model
	goldenCollection(t, &m)
	checkDocs(t, "golden", &m, c)
}

// TestGoldenMappedCompat pins the version-2 (mapped) container layout:
// the committed golden file must keep opening in place, with the same
// answers the v1 golden records. A failure means the section-directory
// layout or a store's mapped encoding changed incompatibly — bump
// snap.VersionV2 and write a migration path instead of regenerating the
// golden file in place.
func TestGoldenMappedCompat(t *testing.T) {
	path := filepath.Join("testdata", "golden_v2.snap")
	if *updateGolden {
		c := goldenCollection(t, new(oracle.Model))
		if err := c.SaveMappedFile(path); err != nil {
			t.Fatalf("regenerating mapped golden: %v", err)
		}
		t.Logf("rewrote %s", path)
	}

	c, err := OpenMappedCollection(path, MappedVerify())
	if err != nil {
		t.Fatalf("golden mapped snapshot no longer opens: %v", err)
	}
	defer c.Close()
	if got := c.DocCount(); got != 22 {
		t.Fatalf("DocCount = %d, want 22", got)
	}
	if got := c.Len(); got != 454 {
		t.Fatalf("Len = %d, want 454", got)
	}
	if got := c.Count([]byte("abracadabra")); got != 22 {
		t.Fatalf("Count(abracadabra) = %d, want 22", got)
	}
	if c.Has(5) || c.Has(12) || !c.Has(24) {
		t.Fatal("deleted/live document state diverges from the golden corpus")
	}
	data, ok := c.Extract(7, 0, 6)
	if !ok || string(data) != "golden" {
		t.Fatalf("Extract(7) = %q, %v", data, ok)
	}
	var m oracle.Model
	goldenCollection(t, &m)
	checkDocs(t, "golden-mapped", &m, c)
}
