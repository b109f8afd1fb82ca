package storage

import (
	"context"

	"seqlog/internal/kvstore"
	"seqlog/internal/metrics"
	"seqlog/internal/model"
)

// Backend is the typed view of the indexing database that every storage
// consumer — index.Builder, query.Processor, the ingest pipeline and the
// engine — writes and reads through. Two implementations exist:
//
//   - *Tables (this package): every table in one kvstore.
//   - *shard.Tables (internal/shard): the tables partitioned across N
//     independent kvstore instances, with writes routed by shard key and
//     reads scatter-gathered with a deterministic merge, so a sharded
//     engine is observably identical to a single-store one (the
//     shard-count-invariance oracle test asserts this byte for byte).
//
// The paper stores its tables in Cassandra and scales by partitioning work
// per trace; Backend is the seam that lets this reproduction do the same
// partitioning at the storage layer without the query or indexing code
// knowing how many stores sit underneath.
//
// Every read method takes a context.Context first: the local backends only
// poll it at coarse boundaries (per scanned trace, per scattered shard), but
// the seam carries it so a future network shard backend can attach real
// deadlines to its RPCs. Writes stay context-free — a WAL batch group either
// commits or rolls back as a unit, and the ingest pipeline polls its own
// abort flag between table writes instead.
type Backend interface {
	// Seq table: trace_id -> [(activity, ts), ...]
	AppendSeq(id model.TraceID, events []model.TraceEvent) error
	GetSeq(ctx context.Context, id model.TraceID) ([]model.TraceEvent, bool, error)
	DeleteSeq(id model.TraceID) error
	ScanSeq(ctx context.Context, fn func(model.TraceID, []model.TraceEvent) error) error
	NumTraces(ctx context.Context) (int, error)

	// Index table: (ev_a, ev_b) -> [(trace, tsA, tsB), ...], optionally
	// partitioned per period. It has exactly two reads: GetPostings (below)
	// is the point read the join uses, ScanIndex the raw per-partition scan
	// that audits and the test oracles read rows through.
	AppendIndex(period string, pair model.PairKey, entries []IndexEntry) error
	ScanIndex(ctx context.Context, period string, fn func(model.PairKey, []IndexEntry) error) error
	NumIndexedPairs(ctx context.Context, period string) (int, error)
	DropPeriod(period string) error
	Periods(ctx context.Context) ([]string, error)

	// Block-postings view and segment lifecycle. GetPostings hands the
	// pair's sorted runs out unmerged (segment blocks decode lazily through
	// the skip headers); FreezePostings folds the memtable tier into an
	// immutable segment file (ErrSegmentsDisabled when the backend was
	// opened without segment directories); Close releases segment mappings
	// without closing the underlying store(s).
	GetPostings(ctx context.Context, pair model.PairKey) (Postings, error)
	FreezePostings() error
	SegmentStats() SegmentStats
	Close() error

	// Count table: a row per leading activity, one entry per successor.
	// Predecessors are found by pair reads (GetPairCount) over the alphabet.
	MergeCounts(first model.ActivityID, delta []CountEntry) error
	GetCounts(ctx context.Context, first model.ActivityID) ([]CountEntry, error)
	GetPairCount(ctx context.Context, a, b model.ActivityID) (CountEntry, bool, error)

	// The pair's latest completion timestamp, a statistic derived from its
	// postings and the residual DropPeriod leaves (Algorithm 1's watermark
	// is the Seq boundary, DESIGN §4).
	GetLastCompletion(ctx context.Context, pair model.PairKey) (model.Timestamp, error)

	// Meta table.
	PutMeta(key string, value []byte) error
	GetMeta(key string) ([]byte, bool, error)

	// Batch returns a writer grouping mutations into crash-atomic units;
	// it is never nil (a memory-backed store's groups are no-ops). For a
	// sharded backend the writer fans out to one group per shard: each
	// shard's portion of a flush commits (and fsyncs) atomically on that
	// shard.
	Batch() kvstore.BatchWriter

	// NumShards reports how many independent stores back this view (1 for
	// *Tables). The query processor uses it to decide whether scatter
	// fan-out is worth spawning goroutines for.
	NumShards() int

	// Observability and lifecycle.
	CacheStats() CacheStats
	SetCacheBudget(bytes int64)
	SetMetrics(reg *metrics.Registry)
	ReadRows() int64
	Recovery() kvstore.RecoveryStats
}

// Batch returns the store's crash-atomic group writer.
func (t *Tables) Batch() kvstore.BatchWriter { return t.store }

// NumShards reports the single store backing this view.
func (t *Tables) NumShards() int { return 1 }

// ShardedCommits is the per-shard commit seam of the parallel flush path. A
// backend that can expose its independent stores lets the ingest pipeline
// partition one flush into per-store deltas and drive one WAL group per
// store concurrently, instead of funneling every shard's group through a
// single sequential commit. The routing functions must agree with where the
// backend's write methods put each row — the pipeline partitions its deltas
// with them and then writes each partition through the ordinary Backend
// methods, relying on every row of partition i landing inside store i's
// open group.
type ShardedCommits interface {
	// ShardBatch returns store i's crash-atomic group writer, never nil.
	// Unlike Batch, the groups of different shards are begun, written and
	// sealed independently (and possibly concurrently) by the caller.
	ShardBatch(i int) kvstore.BatchWriter
	// ShardForTrace is the shard a trace-keyed row (Seq) routes to.
	ShardForTrace(id model.TraceID) int
	// ShardForPair is the shard a pair-keyed row (Index, and the count
	// partial registered under that pair's activity) routes to.
	ShardForPair(k model.PairKey) int
}

// ShardBatch on the single-store backend is Batch: there is one store, and
// every row routes to it.
func (t *Tables) ShardBatch(i int) kvstore.BatchWriter { return t.Batch() }

// ShardForTrace implements ShardedCommits (single store: everything is 0).
func (t *Tables) ShardForTrace(id model.TraceID) int { return 0 }

// ShardForPair implements ShardedCommits (single store: everything is 0).
func (t *Tables) ShardForPair(k model.PairKey) int { return 0 }

var _ ShardedCommits = (*Tables)(nil)
