package storage

import (
	"cmp"
	"context"
	"slices"
	"sort"

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
// Algorithm 1 updates Seq, Index and Count together, one batch at a time,
// and so does the write contract: Commit takes a batch's whole Delta and
// writes each store's part of it as one crash-atomic group. The row writes
// it is made of (*Tables' AppendSeq, AppendIndex, MergeCounts, PutMeta) are
// not part of the interface, and meta rows too reach a store only in a
// Delta.
//
// Every read method takes a context.Context first: the local backends only
// poll it at coarse boundaries (per scanned trace, per scattered shard), but
// the seam carries it so a network shard backend can attach real deadlines
// to its RPCs. Writes stay context-free: a group either commits or rolls
// back as a unit.
type Backend interface {
	// Commit writes one batch: d's Seq appends, Index entries (into the
	// period partition, "" the default), the Count increments summed from
	// those entries, and d's meta rows. Each store's part is one
	// crash-atomic group, sealed without waiting for its fsync: the result
	// holds one handle per store, aligned with NumShards, nil for a store
	// the delta did not touch, and Wait on a handle returns once that
	// store's part is durable. Commit may sort d's entry slices in place.
	Commit(period string, d *Delta) ([]kvstore.Durability, error)

	// Seq table: trace_id -> [(activity, ts), ...]
	GetSeq(ctx context.Context, id model.TraceID) ([]model.TraceEvent, bool, error)
	DeleteSeq(id model.TraceID) error
	ScanSeq(ctx context.Context, fn func(model.TraceID, []model.TraceEvent) error) error
	NumTraces(ctx context.Context) (int, error)

	// Index table: (ev_a, ev_b) -> [(trace, tsA, tsB), ...], optionally
	// partitioned per period. It has exactly two reads: GetPostings (below)
	// is the point read the join uses, ScanIndex the raw per-partition scan
	// that audits and the test oracles read rows through.
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
	GetCounts(ctx context.Context, first model.ActivityID) ([]CountEntry, error)
	GetPairCount(ctx context.Context, a, b model.ActivityID) (CountEntry, bool, error)

	// The pair's latest completion timestamp, a statistic derived from its
	// postings and the residual DropPeriod leaves (Algorithm 1's watermark
	// is the Seq boundary, DESIGN §4).
	GetLastCompletion(ctx context.Context, pair model.PairKey) (model.Timestamp, error)

	// Meta table: rows are written through Commit's Delta.Meta (the
	// engine's pins at open, a flush's alphabet).
	GetMeta(key string) ([]byte, bool, error)

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

// NumShards reports the single store backing this view.
func (t *Tables) NumShards() int { return 1 }

// Delta is one batch of Algorithm 1: the events each trace appends to its
// Seq row, the new Index entries of each pair, and meta rows written in the
// same group (the engine's alphabet when it grew). It carries no Count
// rows: a pair's increment is the completions and summed durations of its
// entries.
type Delta struct {
	Seqs    map[model.TraceID][]model.TraceEvent
	Entries map[model.PairKey][]IndexEntry
	Meta    map[string][]byte
}

// NewDelta returns an empty delta ready for writes.
func NewDelta() *Delta {
	return &Delta{
		Seqs:    make(map[model.TraceID][]model.TraceEvent),
		Entries: make(map[model.PairKey][]IndexEntry),
	}
}

// Empty reports whether d writes nothing.
func (d *Delta) Empty() bool {
	return len(d.Seqs) == 0 && len(d.Entries) == 0 && len(d.Meta) == 0
}

// apply writes d's rows in commit order: Seq rows by trace id, Index rows by
// pair key, each with its entries sorted by (trace, TsB), and the Count
// increments of one leading activity merged after its last pair (pairs in
// key order keep one activity's pairs together), then meta rows by key.
func (t *Tables) apply(period string, d *Delta) error {
	for _, id := range sortedKeys(d.Seqs) {
		if err := t.AppendSeq(id, d.Seqs[id]); err != nil {
			return err
		}
	}
	keys := sortedKeys(d.Entries)
	var counts []CountEntry
	for i, k := range keys {
		es := d.Entries[k]
		// A pair's entries come from many traces; keep a canonical order
		// inside the appended chunk.
		less := func(i, j int) bool {
			if es[i].Trace != es[j].Trace {
				return es[i].Trace < es[j].Trace
			}
			return es[i].TsB < es[j].TsB
		}
		if !sort.SliceIsSorted(es, less) {
			sort.Slice(es, less)
		}
		if err := t.AppendIndex(period, k, es); err != nil {
			return err
		}
		c := CountEntry{Other: k.Second(), Completions: int64(len(es))}
		for _, e := range es {
			c.SumDuration += int64(e.TsB - e.TsA)
		}
		counts = append(counts, c)
		if i+1 == len(keys) || keys[i+1].First() != k.First() {
			if err := t.MergeCounts(k.First(), counts); err != nil {
				return err
			}
			counts = counts[:0]
		}
	}
	for _, key := range sortedKeys(d.Meta) {
		if err := t.PutMeta(key, d.Meta[key]); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Commit writes d as one crash-atomic group on the store and seals it
// without waiting for the fsync; a store that cannot seal commits the group
// durably and returns kvstore.Durable. A failed write aborts the group.
func (t *Tables) Commit(period string, d *Delta) ([]kvstore.Durability, error) {
	if d.Empty() {
		return []kvstore.Durability{nil}, nil
	}
	if err := t.store.BeginBatch(); err != nil {
		return nil, err
	}
	if err := t.apply(period, d); err != nil {
		t.store.AbortBatch(err)
		return nil, err
	}
	gc, ok := t.store.(kvstore.GroupCommitter)
	if !ok {
		return []kvstore.Durability{kvstore.Durable}, t.store.CommitBatch()
	}
	w, err := gc.SealBatch()
	if err != nil {
		return nil, err
	}
	return []kvstore.Durability{w}, nil
}
