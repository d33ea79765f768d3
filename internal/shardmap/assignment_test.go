package shardmap

import (
	"reflect"
	"testing"
)

// TestAssignmentGoldenTables pins the default replica-set tables. Like
// the BackendFor goldens, these are a deployed-fleet contract: a
// frontend restarted with the same (n, R) must compute the identical
// table or every key re-homes silently.
func TestAssignmentGoldenTables(t *testing.T) {
	cases := []struct {
		n, r  int
		table [][]int
	}{
		{2, 1, [][]int{{0}, {1}}},
		{2, 2, [][]int{{0, 1}, {1, 0}}},
		{3, 2, [][]int{{0, 1}, {1, 2}, {2, 0}}},
		{4, 2, [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}},
		{4, 3, [][]int{{0, 1, 2}, {1, 2, 3}, {2, 3, 0}, {3, 0, 1}}},
	}
	for _, c := range cases {
		a := NewAssignment(c.n, c.r)
		if !reflect.DeepEqual(a.Table, c.table) {
			t.Errorf("NewAssignment(%d,%d).Table = %v, want %v (golden table changed!)", c.n, c.r, a.Table, c.table)
		}
	}
}

// TestAssignmentRowCompat: with a default one-row-per-backend table,
// RowOf must agree with the pinned BackendFor contract for every fleet
// size the BackendFor goldens cover — the replicated table is a strict
// extension of the fixed placement, not a re-homing.
func TestAssignmentRowCompat(t *testing.T) {
	keys := []uint64{0, 1, 2, 3, 7, 42, 1000, 65536, 1 << 32, 0xffffffffffffffff, 0xdeadbeef, 123456789}
	for _, n := range []int{2, 3, 4, 8, 16} {
		for _, r := range []int{1, 2, 3} {
			a := NewAssignment(n, r)
			for _, k := range keys {
				row := a.RowOf(k)
				if row != BackendFor(k, n) {
					t.Fatalf("RowOf(%d) = %d under n=%d, want BackendFor's %d", k, row, n, BackendFor(k, n))
				}
				if a.Replicas(row)[0] != row {
					t.Fatalf("row %d primary = %d, want the row index (n=%d, r=%d)", row, a.Replicas(row)[0], n, r)
				}
			}
		}
	}
}

// TestAssignmentClamps: degenerate n and r clamp instead of panicking.
func TestAssignmentClamps(t *testing.T) {
	a := NewAssignment(0, 0)
	if a.Backends != 1 || a.Replication != 1 || len(a.Table) != 1 || len(a.Table[0]) != 1 {
		t.Fatalf("NewAssignment(0,0) = %+v, want the 1-backend singleton", a)
	}
	if a := NewAssignment(2, 9); a.Replication != 2 || len(a.Table[0]) != 2 {
		t.Fatalf("r > n must clamp to n: %+v", a)
	}
}
