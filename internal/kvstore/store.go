// Package kvstore is the key-value database substrate of the reproduction.
// The paper stores its index tables in Cassandra but notes that "any
// key-value store can be used in replacement" (§3); this package provides
// that replacement as an embedded store with two engines:
//
//   - MemStore: a sharded in-memory engine used for experiments and tests.
//   - DiskStore: a durable engine with a write-ahead log, snapshots and
//     crash recovery, so indices survive restarts like a database would.
//
// The access pattern of the index is append-heavy (inverted-index rows grow
// by batch), so the Store interface exposes Append as a first-class
// operation in addition to Get/Put/Delete/Scan.
package kvstore

import "errors"

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("kvstore: store is closed")

// Store is a table-oriented key-value store. Tables are cheap namespaces
// (created implicitly on first write), mirroring the Cassandra tables of
// §3.1.2 (Seq, Index, Count, and LastChecked reduced to the residual
// timestamp of a pair's dropped partitions; Reverse Count is not kept,
// being Count transposed).
//
// Implementations must be safe for concurrent use. Values returned by Get
// and Scan must not be mutated by the caller unless documented otherwise.
type Store interface {
	// Get returns the value stored under (table, key). ok is false when
	// the key is absent.
	Get(table, key string) (value []byte, ok bool, err error)

	// Put stores value under (table, key), replacing any previous value.
	Put(table, key string, value []byte) error

	// Append appends value to the existing value under (table, key),
	// creating the entry if absent. This matches the inverted-index
	// update pattern: posting lists only ever grow within a period.
	Append(table, key string, value []byte) error

	// Delete removes (table, key); deleting an absent key is a no-op.
	Delete(table, key string) error

	// Scan calls fn for every (key, value) in table, in unspecified
	// order, stopping early if fn returns an error (which is returned).
	Scan(table string, fn func(key string, value []byte) error) error

	// DropTable removes an entire table. The paper prunes completed
	// traces and retires per-period index tables this way (§3.1.3).
	DropTable(table string) error

	// Tables returns the names of all non-empty tables.
	Tables() ([]string, error)

	// Len returns the number of keys in table.
	Len(table string) (int, error)

	// Close releases resources; for durable engines it flushes state.
	Close() error

	// Every store groups mutations the same way, so writers have one code
	// path: durable engines make the group crash-atomic, MemStore's group
	// methods are no-ops.
	BatchWriter
}

// BatchWriter groups mutations into a unit that is atomic with respect to
// crash recovery: either every record between BeginBatch and CommitBatch
// survives a reopen, or none does. CommitBatch also makes the group durable
// (one fsync for the whole group — the group commit of the streaming
// ingestion pipeline). Callers must serialise: no concurrent writers between
// BeginBatch and CommitBatch, and groups do not nest. AbortBatch abandons a
// group after a mid-batch write failure; for durable stores this poisons the
// store so a reopen rolls back cleanly.
//
// MemStore implements the three methods as no-ops: with nothing to recover
// every group is trivially atomic.
type BatchWriter interface {
	BeginBatch() error
	CommitBatch() error
	AbortBatch(cause error)
}

// Atomically runs apply inside one group of w: the group is committed (and
// durable) when apply succeeds, and aborted with apply's error otherwise.
func Atomically(w BatchWriter, apply func() error) error {
	if err := w.BeginBatch(); err != nil {
		return err
	}
	if err := apply(); err != nil {
		w.AbortBatch(err)
		return err
	}
	return w.CommitBatch()
}

// Durability is a sealed group's pending fsync. Wait blocks until the
// group's commit marker is durable on disk (or the store failed) and may be
// called from any goroutine, any number of times. Concurrent Waits share
// fsyncs: one caller leads the fsync and every waiter whose group it covers
// returns without issuing its own — the fsync-coalescing half of pipelined
// group commits.
type Durability interface {
	Wait() error
}

// Durable is the handle of a group that was durable when its commit
// returned: Wait returns nil at once.
var Durable Durability = durable{}

type durable struct{}

func (durable) Wait() error { return nil }

// GroupCommitter extends BatchWriter with pipelined group commits: SealBatch
// writes the group's commit marker and closes the group WITHOUT waiting for
// the fsync, so the caller may open and write the next group while the disk
// works, then make both durable with one shared fsync via the returned
// handles. CommitBatch is exactly SealBatch followed by Wait. The
// crash-recovery contract is unchanged — a group whose marker never reached
// the disk rolls back whole — callers just must not acknowledge a group
// before its Wait returns.
type GroupCommitter interface {
	BatchWriter
	SealBatch() (Durability, error)
}
