package dyncoll

import (
	"dyncoll/internal/snap"
)

// WAL record payloads: one record per acknowledged facade mutation,
// self-describing via a leading op byte so replay needs no external
// framing beyond the WAL's own. Batches travel as one record — replay
// applies them through the same atomic batch entry points, so a batch
// is either fully present after recovery or fully absent, never split.

const (
	opInsertBatch byte = 1 // collection: uvarint count, then (uvarint id, blob data) each
	opDeleteBatch byte = 2 // collection: length-prefixed id list
	opRelAdd      byte = 3 // relation: uvarint object, uvarint label
	opRelDelete   byte = 4
	opGraphAdd    byte = 5 // graph: uvarint u, uvarint v
	opGraphDelete byte = 6
)

func encodeInsertBatch(docs []Document) []byte {
	e := &snap.Encoder{}
	e.Byte(opInsertBatch)
	e.Uvarint(uint64(len(docs)))
	for _, d := range docs {
		e.Uvarint(d.ID)
		e.Blob(d.Data)
	}
	return e.Bytes()
}

func encodeDeleteBatch(ids []uint64) []byte {
	e := &snap.Encoder{}
	e.Byte(opDeleteBatch)
	e.Uint64s(ids)
	return e.Bytes()
}

func encodePairOp(op byte, a, b uint64) []byte {
	e := &snap.Encoder{}
	e.Byte(op)
	e.Uvarint(a)
	e.Uvarint(b)
	return e.Bytes()
}

// applyRecord replays one WAL record into a collection. Replay is
// tolerant of operations that are already reflected in the state —
// inserts of live IDs are skipped and deletes of absent IDs are no-ops
// — so a record straddling a recovery point can never fail the open.
func (c *Collection) applyRecord(payload []byte) error {
	dec := snap.NewDecoder(payload)
	op := dec.Byte()
	if err := dec.Err(); err != nil {
		return err
	}
	switch op {
	case opInsertBatch:
		n := dec.Count(2)
		if err := dec.Err(); err != nil {
			return err
		}
		docs := make([]Document, 0, n)
		for i := 0; i < n; i++ {
			id := dec.Uvarint()
			data := append([]byte(nil), dec.Blob()...)
			if err := dec.Err(); err != nil {
				return err
			}
			if c.Has(id) {
				continue
			}
			docs = append(docs, Document{ID: id, Data: data})
		}
		if dec.Remaining() != 0 {
			return snap.Corruptf("wal record: %d trailing bytes", dec.Remaining())
		}
		if len(docs) == 0 {
			return nil
		}
		if err := c.InsertBatch(docs); err != nil {
			return snap.Corruptf("wal replay insert: %v", err)
		}
		return nil
	case opDeleteBatch:
		ids := dec.Uint64s()
		if err := dec.Err(); err != nil {
			return err
		}
		if dec.Remaining() != 0 {
			return snap.Corruptf("wal record: %d trailing bytes", dec.Remaining())
		}
		c.DeleteBatch(ids)
		return nil
	default:
		return snap.Corruptf("wal record: op %d on a collection", op)
	}
}

// applyRecord replays one WAL record into a relation — or, with the
// graph's op codes, into the relation a graph wraps; the other kind's
// records are corruption. Duplicate adds and absent deletes are no-ops,
// as for collections.
func (r *Relation) applyRecord(payload []byte) error {
	add, del := opRelAdd, opRelDelete
	if r.cfg.kind == kindGraph {
		add, del = opGraphAdd, opGraphDelete
	}
	dec := snap.NewDecoder(payload)
	op := dec.Byte()
	if dec.Err() == nil && op != add && op != del {
		return snap.Corruptf("wal record: op %d on a %v", op, r.cfg.kind)
	}
	a, b := dec.Uvarint(), dec.Uvarint()
	if err := dec.Err(); err != nil {
		return err
	}
	if dec.Remaining() != 0 {
		return snap.Corruptf("wal record: %d trailing bytes", dec.Remaining())
	}
	if op == add {
		r.add(a, b)
	} else {
		r.del(a, b)
	}
	return nil
}
