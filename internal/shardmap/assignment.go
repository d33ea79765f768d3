package shardmap

// Assignment is the key-range → replica-set table the fleet routes
// through. The key space is partitioned into len(Table) ranges ("rows")
// by the same pinned BackendFor mixing that places keys on backends, so
// row b's primary is backend b. Each row lists the ordered replica set
// holding that range — primary first, then R−1 replicas — and writes
// must reach every member (quorum = all) while reads may be served by
// any live member. R = 1 is the same table with one-member sets.
//
// The table is a data-placement contract exactly like BackendFor: it is
// a pure function of (n, R), pinned by golden tests.
type Assignment struct {
	// Backends is the fleet size n; every table entry is in [0, n).
	Backends int `json:"backends"`
	// Replication is the replication factor R, the length of every row.
	Replication int `json:"replication"`
	// Table maps each key range (row) to its ordered replica set,
	// primary first. Keys map to rows via RowOf.
	Table [][]int `json:"table"`
}

// NewAssignment builds the table for n backends with replication factor
// r: one row per backend, row b = [b, (b+1)%n, …] with min(r, n) ring
// successors.
func NewAssignment(n, r int) Assignment {
	if n < 1 {
		n = 1
	}
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	table := make([][]int, n)
	for b := 0; b < n; b++ {
		row := make([]int, r)
		for i := 0; i < r; i++ {
			row[i] = (b + i) % n
		}
		table[b] = row
	}
	return Assignment{Backends: n, Replication: r, Table: table}
}

// Rows returns the number of key ranges the table partitions into.
func (a Assignment) Rows() int { return len(a.Table) }

// RowOf maps a key to its range. It reuses the pinned BackendFor mixing
// with n = Rows(), so a key's row is the backend the fixed contract
// places it on.
func (a Assignment) RowOf(key uint64) int { return BackendFor(key, len(a.Table)) }

// Replicas returns row's ordered replica set (primary first). The
// returned slice aliases the table; callers must not mutate it.
func (a Assignment) Replicas(row int) []int { return a.Table[row] }
