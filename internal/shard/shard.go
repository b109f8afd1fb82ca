// Package shard partitions the index tables of the paper across N
// independent kvstore instances — each with its own WAL, snapshots and
// compaction — behind the same storage.Backend interface the single-store
// Tables implements. The paper notes its design "is agnostic to the backing
// key-value store" and scales by partitioning work; this package is that
// scale-out step for the storage layer itself, the enabling move for
// multi-process and multi-node serving.
//
// Routing (see DESIGN.md §9):
//
//   - The inverted Index table, the LastChecked statistic and the Count
//     increments are routed by PAIR KEY: everything derived from one
//     event-type pair lives on one shard, so the point reads of the query
//     hot path (one posting row per pattern pair, one Count entry per
//     statistics pair) stay single-shard.
//   - The Seq table is routed by TRACE with the same Fibonacci-mix hash the
//     ingest pipeline uses for trace affinity.
//   - Count rows are therefore PARTIAL per shard — the row of activity a is
//     split across the shards owning the pairs (a, *) — and whole-row reads
//     scatter-gather across all shards with a deterministic merge (summing
//     per successor, ordered by successor id), so aggregated statistics are
//     byte-identical to the single-store answer.
//
// Shard-count invariance — a K-shard engine answers every query family
// identically to a 1-shard engine over the same log — is the core
// correctness claim, enforced by the differential oracle test at the engine
// level and fuzzed at the routing level (a key must map to the same shard on
// every run and every restart; routing is a pure function of key and N).
package shard

import (
	"context"
	"fmt"

	"seqlog/internal/kvstore"
	"seqlog/internal/metrics"
	"seqlog/internal/model"
	"seqlog/internal/parallel"
	"seqlog/internal/storage"
)

// fibMix is the 64-bit Fibonacci-hashing multiplier used across the
// repository (ingest trace affinity, builder accumulator shards): it
// scatters sequential ids uniformly without a per-key hash state.
const fibMix = 0x9E3779B97F4A7C15

// PairShard maps a pair key onto its owning shard. It is a pure function of
// (key, n): the same key routes to the same shard on every call, every
// process and every restart, which is what makes a sharded directory layout
// reopenable (the engine additionally pins n in the meta table so a
// misconfigured reopen fails instead of silently re-routing).
func PairShard(k model.PairKey, n int) int {
	if n <= 1 {
		return 0
	}
	return int((uint64(k) * fibMix) >> 32 % uint64(n))
}

// TraceShard maps a trace id onto its owning shard — the same affinity
// function the ingest pipeline uses, so a trace's Seq row lives where its
// streaming sessions are extracted.
func TraceShard(id model.TraceID, n int) int {
	if n <= 1 {
		return 0
	}
	return int((uint64(id) * fibMix) >> 32 % uint64(n))
}

// Options tunes a sharded backend.
type Options struct {
	// Workers bounds the scatter-gather fan-out of cross-shard reads
	// (counts, scans, statistics); 0 uses all cores. Results are identical
	// at any worker count — merges are deterministic.
	Workers int

	// SegmentDirs, when non-empty, gives each shard its own segment
	// directory (same length and order as the store slice), enabling the
	// immutable postings tier per shard. Empty disables segments.
	SegmentDirs []string

	// FS abstracts segment-file access (fault-injection tests); nil uses
	// the real filesystem.
	FS kvstore.FS
}

// Tables is the sharded implementation of storage.Backend: one per-shard
// backend — a local storage.Tables (and decoded-postings cache) per
// underlying store, or any other storage.Backend such as a netshard client
// talking to a remote shard server. Writes route to exactly one shard; reads
// either route (pair- and trace-keyed point lookups) or scatter-gather with
// a deterministic merge.
type Tables struct {
	shards  []storage.Backend
	locals  []*storage.Tables // locals[i] non-nil iff shard i is an in-process storage.Tables
	stores  []kvstore.Store
	workers int
}

var _ storage.Backend = (*Tables)(nil)

// New wraps n independent stores into one sharded backend. The slice order
// is the shard numbering and must be stable across restarts (the engine
// opens shard-NNNN directories in index order).
func New(stores []kvstore.Store, opts Options) (*Tables, error) {
	if len(stores) == 0 {
		return nil, fmt.Errorf("shard: need at least one store")
	}
	if len(opts.SegmentDirs) != 0 && len(opts.SegmentDirs) != len(stores) {
		return nil, fmt.Errorf("shard: %d segment dirs for %d stores", len(opts.SegmentDirs), len(stores))
	}
	t := &Tables{
		shards:  make([]storage.Backend, len(stores)),
		locals:  make([]*storage.Tables, len(stores)),
		stores:  append([]kvstore.Store(nil), stores...),
		workers: opts.Workers,
	}
	for i, s := range t.stores {
		so := storage.Options{FS: opts.FS}
		if len(opts.SegmentDirs) != 0 {
			so.SegmentDir = opts.SegmentDirs[i]
		}
		tab, err := storage.OpenTables(s, so)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		t.shards[i] = tab
		t.locals[i] = tab
	}
	return t, nil
}

// NewFromBackends wraps n already-opened per-shard backends — typically
// netshard clients, one per remote shard server — into one sharded view. The
// slice order is the shard numbering and must match the placement map on
// every coordinator, or routing silently diverges; the engine pins the count
// (not the order) in the meta table, and each per-shard backend must present
// exactly one store (NumShards() == 1). Routing, deterministic merges and
// the ShardedCommits partitioning all behave exactly as with local stores —
// which is what makes the remote engine byte-identical to the in-process one.
func NewFromBackends(backends []storage.Backend, opts Options) (*Tables, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("shard: need at least one backend")
	}
	t := &Tables{
		shards:  append([]storage.Backend(nil), backends...),
		locals:  make([]*storage.Tables, len(backends)),
		workers: opts.Workers,
	}
	for i, b := range t.shards {
		if b == nil {
			return nil, fmt.Errorf("shard %d: nil backend", i)
		}
		if n := b.NumShards(); n != 1 {
			return nil, fmt.Errorf("shard %d: backend presents %d stores, want 1", i, n)
		}
		if tab, ok := b.(*storage.Tables); ok {
			t.locals[i] = tab
		}
	}
	return t, nil
}

// NumShards reports the shard count.
func (t *Tables) NumShards() int { return len(t.shards) }

// Shard exposes one shard's single-store view (tests and tools). It is nil
// for shards backed by a remote client rather than an in-process
// storage.Tables; use Backend for those.
func (t *Tables) Shard(i int) *storage.Tables { return t.locals[i] }

// Backend exposes shard i's backend, local or remote.
func (t *Tables) Backend(i int) storage.Backend { return t.shards[i] }

// Stores exposes the underlying stores in shard order (empty when the
// backend was built from remote clients via NewFromBackends).
func (t *Tables) Stores() []kvstore.Store { return t.stores }

func (t *Tables) pairTab(k model.PairKey) storage.Backend {
	return t.shards[PairShard(k, len(t.shards))]
}

func (t *Tables) traceTab(id model.TraceID) storage.Backend {
	return t.shards[TraceShard(id, len(t.shards))]
}

// each runs fn once per shard on the scatter-gather worker pool. The first
// shard error or a done ctx stops dispatch to sibling shards; in-flight
// shard calls are drained before each returns.
func (t *Tables) each(ctx context.Context, fn func(i int, s storage.Backend) error) error {
	return parallel.ForEachCtx(ctx, len(t.shards), t.workers, func(i int) error {
		return fn(i, t.shards[i])
	})
}

// ---- Seq table (trace-routed) ----------------------------------------------

// AppendSeq appends events to the trace's Seq row on its affinity shard.
func (t *Tables) AppendSeq(id model.TraceID, events []model.TraceEvent) error {
	return t.traceTab(id).AppendSeq(id, events)
}

// GetSeq reads the trace's stored sequence from its affinity shard.
func (t *Tables) GetSeq(ctx context.Context, id model.TraceID) ([]model.TraceEvent, bool, error) {
	return t.traceTab(id).GetSeq(ctx, id)
}

// DeleteSeq prunes the trace from its affinity shard.
func (t *Tables) DeleteSeq(id model.TraceID) error {
	return t.traceTab(id).DeleteSeq(id)
}

// ScanSeq iterates over all traces, shard by shard in shard order. Like the
// single-store scan, per-shard key order is unspecified; callers that need
// an order sort, exactly as they already must.
func (t *Tables) ScanSeq(ctx context.Context, fn func(model.TraceID, []model.TraceEvent) error) error {
	for _, s := range t.shards {
		if err := s.ScanSeq(ctx, fn); err != nil {
			return err
		}
	}
	return nil
}

// NumTraces sums the per-shard trace counts (trace routing never duplicates
// a trace across shards).
func (t *Tables) NumTraces(ctx context.Context) (int, error) {
	counts := make([]int, len(t.shards))
	err := t.each(ctx, func(i int, s storage.Backend) error {
		n, err := s.NumTraces(ctx)
		counts[i] = n
		return err
	})
	total := 0
	for _, n := range counts {
		total += n
	}
	return total, err
}

// ---- Index table (pair-routed) ---------------------------------------------

// AppendIndex appends entries to the pair's posting row on its owning shard
// (which also registers the period there, so each shard's period list covers
// exactly the partitions it holds rows for).
func (t *Tables) AppendIndex(period string, pair model.PairKey, entries []storage.IndexEntry) error {
	return t.pairTab(pair).AppendIndex(period, pair, entries)
}

// GetPostings serves the pair's sorted runs from its owning shard — the
// query hot path stays a single-shard point read, the payoff of pair-key
// routing — with segment blocks left compressed until the join touches them.
func (t *Tables) GetPostings(ctx context.Context, pair model.PairKey) (storage.Postings, error) {
	return t.pairTab(pair).GetPostings(ctx, pair)
}

// FreezePostings folds every shard's memtable tier into its segment file.
// Shards freeze independently; a failure on one leaves the others frozen,
// which is safe (freezing is idempotent and each shard is self-contained).
func (t *Tables) FreezePostings() error {
	return t.each(context.Background(), func(_ int, s storage.Backend) error {
		return s.FreezePostings()
	})
}

// SegmentStats sums the per-shard immutable-tier stats.
func (t *Tables) SegmentStats() storage.SegmentStats {
	var out storage.SegmentStats
	for _, s := range t.shards {
		st := s.SegmentStats()
		out.Segments += st.Segments
		out.Rows += st.Rows
		out.Entries += st.Entries
		out.Bytes += st.Bytes
		out.Freezes += st.Freezes
	}
	return out
}

// Close releases every shard's segment mappings (stores stay open; remote
// clients close their connections).
func (t *Tables) Close() error {
	var first error
	for _, s := range t.shards {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Sync asks every shard backend that can make its store durable to do so
// (remote clients forward this to the shard server's store). Shards without
// a Sync method — in-process storage.Tables, whose store the engine syncs
// directly — are skipped.
func (t *Tables) Sync() error {
	var first error
	for _, s := range t.shards {
		sy, ok := s.(interface{ Sync() error })
		if !ok {
			continue
		}
		if err := sy.Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ScanIndex iterates one partition's pairs shard by shard in shard order.
func (t *Tables) ScanIndex(ctx context.Context, period string, fn func(model.PairKey, []storage.IndexEntry) error) error {
	for _, s := range t.shards {
		if err := s.ScanIndex(ctx, period, fn); err != nil {
			return err
		}
	}
	return nil
}

// NumIndexedPairs sums the per-shard distinct-pair counts of one partition
// (pair routing never duplicates a pair across shards).
func (t *Tables) NumIndexedPairs(ctx context.Context, period string) (int, error) {
	counts := make([]int, len(t.shards))
	err := t.each(ctx, func(i int, s storage.Backend) error {
		n, err := s.NumIndexedPairs(ctx, period)
		counts[i] = n
		return err
	})
	total := 0
	for _, n := range counts {
		total += n
	}
	return total, err
}

// DropPeriod retires the partition on every shard.
func (t *Tables) DropPeriod(period string) error {
	return t.each(context.Background(), func(_ int, s storage.Backend) error {
		return s.DropPeriod(period)
	})
}

// Periods returns the sorted union of every shard's registered periods.
func (t *Tables) Periods(ctx context.Context) ([]string, error) {
	per := make([][]string, len(t.shards))
	err := t.each(ctx, func(i int, s storage.Backend) error {
		ps, err := s.Periods(ctx)
		per[i] = ps
		return err
	})
	if err != nil {
		return nil, err
	}
	return mergeSortedStrings(per), nil
}

// ---- Count table (pair-routed writes, gathered row reads) ------------------

// MergeCounts folds a Count delta in, splitting it so each (first, other)
// increment lands on the shard owning the pair (first, other). The row of
// `first` becomes partial per shard; GetCounts re-aggregates.
func (t *Tables) MergeCounts(first model.ActivityID, delta []storage.CountEntry) error {
	if len(t.shards) == 1 {
		return t.shards[0].MergeCounts(first, delta)
	}
	split := make([][]storage.CountEntry, len(t.shards))
	for _, e := range delta {
		si := PairShard(model.NewPairKey(first, e.Other), len(t.shards))
		split[si] = append(split[si], e)
	}
	for si, d := range split {
		if len(d) == 0 {
			continue
		}
		if err := t.shards[si].MergeCounts(first, d); err != nil {
			return err
		}
	}
	return nil
}

// GetCounts scatter-gathers the partial Count rows of `first` from every
// shard and merges them — summing per successor, ordered by successor id —
// into the exact row a single store would hold.
func (t *Tables) GetCounts(ctx context.Context, first model.ActivityID) ([]storage.CountEntry, error) {
	rows := make([][]storage.CountEntry, len(t.shards))
	err := t.each(ctx, func(i int, s storage.Backend) error {
		es, err := s.GetCounts(ctx, first)
		rows[i] = es
		return err
	})
	if err != nil {
		return nil, err
	}
	return mergeCountRows(rows), nil
}

// GetPairCount reads the (a, b) Count entry from the pair's owning shard:
// MergeCounts and the ingest partitioner put every increment of a pair
// there, and the shard count is pinned in meta.
func (t *Tables) GetPairCount(ctx context.Context, a, b model.ActivityID) (storage.CountEntry, bool, error) {
	return t.pairTab(model.NewPairKey(a, b)).GetPairCount(ctx, a, b)
}

// mergeCountRows k-way merges per-shard Count rows (each sorted by Other,
// the canonical row order) into one row sorted by Other, summing entries for
// the same successor. k is the shard count, so a linear minimum scan beats a
// heap, exactly like the postings merge.
func mergeCountRows(rows [][]storage.CountEntry) []storage.CountEntry {
	n := 0
	for _, r := range rows {
		n += len(r)
	}
	if n == 0 {
		return nil
	}
	out := make([]storage.CountEntry, 0, n)
	pos := make([]int, len(rows))
	for {
		best := -1
		for i, r := range rows {
			if pos[i] >= len(r) {
				continue
			}
			if best < 0 || r[pos[i]].Other < rows[best][pos[best]].Other {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		e := rows[best][pos[best]]
		pos[best]++
		if k := len(out) - 1; k >= 0 && out[k].Other == e.Other {
			out[k].SumDuration += e.SumDuration
			out[k].Completions += e.Completions
			continue
		}
		out = append(out, e)
	}
}

// ---- LastChecked table (pair-routed: the owning shard holds the row) ------

// MergeLastCompletion raises the pair's row on its owning shard.
func (t *Tables) MergeLastCompletion(pair model.PairKey, ts model.Timestamp) error {
	return t.pairTab(pair).MergeLastCompletion(pair, ts)
}

// GetLastCompletion reads the pair's row from its owning shard: pair-routed
// rows never split, and the shard count is pinned in meta.
func (t *Tables) GetLastCompletion(ctx context.Context, pair model.PairKey) (model.Timestamp, error) {
	return t.pairTab(pair).GetLastCompletion(ctx, pair)
}

// ---- Meta table ------------------------------------------------------------

// PutMeta replicates engine metadata to every shard, so each shard directory
// is self-describing (policy, alphabet, shard count) and a shard opened in
// isolation can still be inspected.
func (t *Tables) PutMeta(key string, value []byte) error {
	for _, s := range t.shards {
		if err := s.PutMeta(key, value); err != nil {
			return err
		}
	}
	return nil
}

// GetMeta reads engine metadata from shard 0 (the replicas are written in
// shard order, so shard 0 is always at least as new as the rest).
func (t *Tables) GetMeta(key string) ([]byte, bool, error) {
	return t.shards[0].GetMeta(key)
}

// ---- Observability / lifecycle ---------------------------------------------

// Batch returns a fan-out group writer opening one crash-atomic batch per
// shard. Atomicity is per-shard: each shard's portion of a flush survives or
// rolls back as a unit on that shard; a crash between shard commits can
// leave some shards a flush ahead of others, which re-ingestion semantics
// tolerate (the watermark dedup of Algorithm 1 makes replays idempotent).
func (t *Tables) Batch() kvstore.BatchWriter {
	ws := make([]kvstore.BatchWriter, len(t.shards))
	for i, s := range t.shards {
		ws[i] = s.Batch()
	}
	return &groupWriter{ws: ws}
}

// ShardBatch implements storage.ShardedCommits: shard i's own group writer.
// The per-shard writers are independent — the ingest pipeline drives them
// concurrently, one flush group per shard, where Batch()'s groupWriter would
// seal them one by one.
func (t *Tables) ShardBatch(i int) kvstore.BatchWriter { return t.shards[i].Batch() }

// ShardForTrace implements storage.ShardedCommits with the same routing the
// write path uses for Seq rows.
func (t *Tables) ShardForTrace(id model.TraceID) int { return TraceShard(id, len(t.shards)) }

// ShardForPair implements storage.ShardedCommits with the same routing the
// write path uses for Index, LastChecked and count-partial rows.
func (t *Tables) ShardForPair(k model.PairKey) int { return PairShard(k, len(t.shards)) }

var _ storage.ShardedCommits = (*Tables)(nil)

// CacheStats sums the per-shard postings-cache counters.
func (t *Tables) CacheStats() storage.CacheStats {
	var out storage.CacheStats
	for _, s := range t.shards {
		cs := s.CacheStats()
		out.Hits += cs.Hits
		out.Misses += cs.Misses
		out.Evictions += cs.Evictions
		out.Entries += cs.Entries
		out.Bytes += cs.Bytes
	}
	return out
}

// SetCacheBudget splits one total budget evenly across the shards: 0 keeps
// the default total (DefaultCacheBytes, divided), negative disables all
// caches. Behaviour matches the single-store semantics at the whole-backend
// level.
func (t *Tables) SetCacheBudget(bytes int64) {
	if bytes < 0 {
		for _, s := range t.shards {
			s.SetCacheBudget(-1)
		}
		return
	}
	if bytes == 0 {
		bytes = storage.DefaultCacheBytes
	}
	per := bytes / int64(len(t.shards))
	if per < 1 {
		per = 1
	}
	for _, s := range t.shards {
		s.SetCacheBudget(per)
	}
}

// ReadRows sums the rows served to readers across every shard.
func (t *Tables) ReadRows() int64 {
	var total int64
	for _, s := range t.shards {
		total += s.ReadRows()
	}
	return total
}

// SetMetrics registers the aggregate series a single-store backend exposes
// (so dashboards are shard-count agnostic) plus one labelled series per
// shard, so a hot shard is visible: seqlog_shard_rows_read_total{shard="i"}
// and seqlog_shard_cache_bytes{shard="i"}.
func (t *Tables) SetMetrics(reg *metrics.Registry) {
	reg.CounterFunc("seqlog_cache_hits_total", func() int64 { return t.CacheStats().Hits })
	reg.CounterFunc("seqlog_cache_misses_total", func() int64 { return t.CacheStats().Misses })
	reg.CounterFunc("seqlog_cache_evictions_total", func() int64 { return t.CacheStats().Evictions })
	reg.GaugeFunc("seqlog_cache_entries", func() int64 { return t.CacheStats().Entries })
	reg.GaugeFunc("seqlog_cache_bytes", func() int64 { return t.CacheStats().Bytes })
	reg.CounterFunc("seqlog_rows_read_total", t.ReadRows)
	reg.GaugeFunc("seqlog_shards", func() int64 { return int64(len(t.shards)) })
	for i, s := range t.shards {
		s := s
		l := metrics.Label{Key: "shard", Value: fmt.Sprintf("%d", i)}
		reg.CounterFunc("seqlog_shard_rows_read_total", s.ReadRows, l)
		reg.GaugeFunc("seqlog_shard_cache_bytes", func() int64 { return s.CacheStats().Bytes }, l)
		if t.locals[i] == nil {
			// Remote backends register their own series (RPC latency,
			// inflight, reconnects) — local Tables would register the
			// aggregate cache series again, so only forward to remotes.
			s.SetMetrics(reg)
		}
	}
}

// Recovery sums what crash recovery found across every shard's store.
func (t *Tables) Recovery() kvstore.RecoveryStats {
	var out kvstore.RecoveryStats
	for _, s := range t.shards {
		r := s.Recovery()
		out.SnapshotRecords += r.SnapshotRecords
		out.WALReplayed += r.WALReplayed
		out.TornTailBytes += r.TornTailBytes
		out.StaleWALBytes += r.StaleWALBytes
		out.DroppedRegions += r.DroppedRegions
		out.DroppedBytes += r.DroppedBytes
		out.UncommittedBatchBytes += r.UncommittedBatchBytes
		out.Salvaged = out.Salvaged || r.Salvaged
	}
	return out
}

// mergeSortedStrings unions per-shard sorted string lists, deduplicating.
func mergeSortedStrings(lists [][]string) []string {
	var out []string
	pos := make([]int, len(lists))
	for {
		best := -1
		for i, l := range lists {
			if pos[i] >= len(l) {
				continue
			}
			if best < 0 || l[pos[i]] < lists[best][pos[best]] {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		v := lists[best][pos[best]]
		pos[best]++
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
}
