package storage

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"seqlog/internal/kvstore"
	"seqlog/internal/metrics"
	"seqlog/internal/model"
)

// IndexEntry is one row fragment of the inverted Index table: the pair
// occurred in Trace between timestamps TsA and TsB (§3.1: "(A,B): {(trace12,
// 2, 5), ...}").
type IndexEntry struct {
	Trace model.TraceID
	TsA   model.Timestamp
	TsB   model.Timestamp
}

// CountEntry is one element of a Count row: for the row's
// key event a, the pair (a, Other) completed Completions times with a total
// duration SumDuration (§3.1.2).
type CountEntry struct {
	Other       model.ActivityID
	SumDuration int64
	Completions int64
}

// AvgDuration returns the mean pair duration, or 0 when no completions.
func (c CountEntry) AvgDuration() float64 {
	if c.Completions == 0 {
		return 0
	}
	return float64(c.SumDuration) / float64(c.Completions)
}

// Tables is the typed view of the indexing database. All methods are safe
// for concurrent use as long as distinct keys are touched; the index builder
// shards writes by key to exploit that (mirroring the paper's per-trace
// parallel appends into Cassandra).
type Tables struct {
	store kvstore.Store
	cache *postingsCache // decoded-postings cache; nil when disabled

	// rows counts decoded rows served to readers across every table
	// (postings entries, seq events, count entries) — the "rows scanned"
	// figure of the slow-query log and the seqlog_rows_read_total counter.
	// A single process-wide atomic: per-query attribution is a delta around
	// the call, exact for serial queries and approximate under concurrency.
	rows atomic.Int64

	// Registered-period list, cached so GetPostings does not re-scan and
	// re-sort the periods table on every pair fetch. The slice is a
	// copy-on-write snapshot: readers hold it without locks, writers
	// replace it wholesale.
	pmu           sync.RWMutex
	periods       []string
	periodsLoaded bool

	// Segment tier (nil/empty on stores opened without one). segMu orders
	// readers against the freeze's reference switch: every public read takes
	// it once (shared) around both the segment lookup and the memtable-tier
	// fetch, so no read observes the new segment alongside the not-yet-dropped
	// rows or vice versa. Retired segments keep their mappings until Close —
	// a BlockRun handed out before a freeze stays readable after it.
	segCfg  *segmentConfig
	segMu   sync.RWMutex
	seg     *segment
	retired []*segment
	segTomb map[string]bool // periods whose segment rows are dead (DropPeriod)

	freezing atomic.Bool // reentrancy guard: commit's WAL sync can re-enter
	freezeMu sync.Mutex  // serialises freezes
	freezes  atomic.Int64
}

// NewTables wraps a store. The decoded-postings cache starts at
// DefaultCacheBytes; use SetCacheBudget to resize or disable it.
func NewTables(store kvstore.Store) *Tables {
	return &Tables{store: store, cache: newPostingsCache(DefaultCacheBytes)}
}

// SetCacheBudget resizes the decoded-postings cache: 0 restores the default
// budget, a negative value disables caching. Resizing discards cached rows;
// call it at startup, before serving queries.
func (t *Tables) SetCacheBudget(bytes int64) {
	if bytes < 0 {
		t.cache = nil
		return
	}
	t.cache = newPostingsCache(bytes)
}

// CacheStats reports the postings-cache counters (all zero when the cache
// is disabled).
func (t *Tables) CacheStats() CacheStats {
	if t.cache == nil {
		return CacheStats{}
	}
	return t.cache.stats()
}

// ReadRows reports the cumulative count of decoded rows served to readers.
func (t *Tables) ReadRows() int64 { return t.rows.Load() }

// SetMetrics registers the cache and row-read counters with a registry as
// func-backed metrics: the existing atomic counters stay the single source
// of truth (CacheStats and Info keep reading them directly), the registry
// merely exposes the same values. Safe with a nil registry.
func (t *Tables) SetMetrics(reg *metrics.Registry) {
	reg.CounterFunc("seqlog_cache_hits_total", func() int64 { return t.CacheStats().Hits })
	reg.CounterFunc("seqlog_cache_misses_total", func() int64 { return t.CacheStats().Misses })
	reg.CounterFunc("seqlog_cache_evictions_total", func() int64 { return t.CacheStats().Evictions })
	reg.GaugeFunc("seqlog_cache_entries", func() int64 { return t.CacheStats().Entries })
	reg.GaugeFunc("seqlog_cache_bytes", func() int64 { return t.CacheStats().Bytes })
	reg.CounterFunc("seqlog_rows_read_total", t.ReadRows)
}

// Store exposes the underlying kvstore (the server and tools report raw
// table statistics through it).
func (t *Tables) Store() kvstore.Store { return t.store }

// Recovery reports what crash recovery found when the underlying store was
// opened. Memory-backed stores report a clean zero value.
func (t *Tables) Recovery() kvstore.RecoveryStats {
	if r, ok := t.store.(interface{ Recovery() kvstore.RecoveryStats }); ok {
		return r.Recovery()
	}
	return kvstore.RecoveryStats{}
}

// ---- Seq table: trace_id -> [(activity, ts), ...] -------------------------

func encodeSeq(buf []byte, events []model.TraceEvent) []byte {
	for _, ev := range events {
		buf = binary.AppendUvarint(buf, uint64(uint32(ev.Activity)))
		buf = binary.AppendVarint(buf, int64(ev.TS))
	}
	return buf
}

// AppendSeq appends events to the stored sequence of the trace, creating it
// if absent. Events must already be in timestamp order.
func (t *Tables) AppendSeq(id model.TraceID, events []model.TraceEvent) error {
	if len(events) == 0 {
		return nil
	}
	return t.store.Append(tableSeq, traceKeyString(id), encodeSeq(nil, events))
}

// GetSeq returns the stored sequence of the trace.
func (t *Tables) GetSeq(_ context.Context, id model.TraceID) ([]model.TraceEvent, bool, error) {
	raw, ok, err := t.store.Get(tableSeq, traceKeyString(id))
	if err != nil || !ok {
		return nil, false, err
	}
	events, err := decodeSeq(raw)
	if err != nil {
		return nil, false, err
	}
	t.rows.Add(int64(len(events)))
	return events, true, nil
}

// countVarints returns the number of varints in a well-formed varint stream
// (each ends with one byte below 0x80), to size the decode loops below.
func countVarints(raw []byte) int {
	n := 0
	for _, b := range raw {
		if b < 0x80 {
			n++
		}
	}
	return n
}

func decodeSeq(raw []byte) ([]model.TraceEvent, error) {
	r := &reader{buf: raw}
	// Two varints per event; counting terminator bytes sizes the slice
	// exactly, so the append loop never reallocates.
	events := make([]model.TraceEvent, 0, countVarints(raw)/2)
	for !r.done() {
		a, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		ts, err := r.varint()
		if err != nil {
			return nil, err
		}
		events = append(events, model.TraceEvent{Activity: model.ActivityID(uint32(a)), TS: model.Timestamp(ts)})
	}
	return events, nil
}

// DeleteSeq prunes a completed trace from the Seq table (§3.1.3).
func (t *Tables) DeleteSeq(id model.TraceID) error {
	return t.store.Delete(tableSeq, traceKeyString(id))
}

// ScanSeq iterates over all stored traces, polling ctx once per trace.
func (t *Tables) ScanSeq(ctx context.Context, fn func(model.TraceID, []model.TraceEvent) error) error {
	done := ctx.Done()
	return t.store.Scan(tableSeq, func(k string, v []byte) error {
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		id, err := parseTraceKey(k)
		if err != nil {
			return err
		}
		events, err := decodeSeq(v)
		if err != nil {
			return err
		}
		t.rows.Add(int64(len(events)))
		return fn(id, events)
	})
}

// NumTraces returns the number of traces in the Seq table.
func (t *Tables) NumTraces(_ context.Context) (int, error) { return t.store.Len(tableSeq) }

// ---- Index table: (ev_a, ev_b) -> [(trace, tsA, tsB), ...] ----------------

func indexTable(period string) string {
	if period == "" {
		return tableIndex
	}
	return tableIndex + ":" + period
}

func encodeIndexEntries(buf []byte, entries []IndexEntry) []byte {
	for _, e := range entries {
		buf = binary.AppendUvarint(buf, uint64(e.Trace))
		buf = binary.AppendVarint(buf, int64(e.TsA))
		buf = binary.AppendUvarint(buf, uint64(e.TsB-e.TsA))
	}
	return buf
}

// AppendIndex appends entries to the inverted-index row of pair within the
// given period partition ("" is the default partition).
func (t *Tables) AppendIndex(period string, pair model.PairKey, entries []IndexEntry) error {
	if len(entries) == 0 {
		return nil
	}
	if period != "" {
		if err := t.registerPeriod(period); err != nil {
			return err
		}
	}
	// 16 bytes hold most entries: a trace id, a millisecond timestamp and
	// a duration, as varints.
	buf := encodeIndexEntries(make([]byte, 0, 16*len(entries)), entries)
	if err := t.store.Append(indexTable(period), pairKeyString(pair), buf); err != nil {
		return err
	}
	// Invalidate after the append: a reader that decoded the pre-append row
	// concurrently sees its generation snapshot go stale and drops it.
	if t.cache != nil {
		t.cache.invalidate(cacheKey{period: period, pair: pair, block: wholeRowBlock})
	}
	return nil
}

// getTailLocked reads the memtable-tier (kvstore) row of pair; segMu must be
// held at least shared.
func (t *Tables) getTailLocked(period string, pair model.PairKey) ([]IndexEntry, error) {
	raw, ok, err := t.store.Get(indexTable(period), pairKeyString(pair))
	if err != nil || !ok {
		return nil, err
	}
	return decodeIndexEntries(raw)
}

func decodeIndexEntries(raw []byte) ([]IndexEntry, error) {
	r := &reader{buf: raw}
	// Three varints per entry (trace, tsA, duration): exact pre-size.
	entries := make([]IndexEntry, 0, countVarints(raw)/3)
	for !r.done() {
		tr, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		tsA, err := r.varint()
		if err != nil {
			return nil, err
		}
		d, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		entries = append(entries, IndexEntry{
			Trace: model.TraceID(tr),
			TsA:   model.Timestamp(tsA),
			TsB:   model.Timestamp(tsA + int64(d)),
		})
	}
	return entries, nil
}

// lessIndexEntry is the (Trace, TsA, TsB) order every postings run obeys —
// the order the query processor's merge join reads.
func lessIndexEntry(a, b IndexEntry) bool {
	if a.Trace != b.Trace {
		return a.Trace < b.Trace
	}
	if a.TsA != b.TsA {
		return a.TsA < b.TsA
	}
	return a.TsB < b.TsB
}

func sortIndexEntries(entries []IndexEntry) {
	sort.Slice(entries, func(i, j int) bool { return lessIndexEntry(entries[i], entries[j]) })
}

// getTailSortedLocked returns the memtable-tier row of pair, cached until
// AppendIndex or DropPeriod touches it. Without a cache, a row is sorted
// only when sorted is set: a maximum needs no order. The slice may be the
// cache's, so callers must not modify it. segMu is held shared.
func (t *Tables) getTailSortedLocked(period string, pair model.PairKey, sorted bool) ([]IndexEntry, error) {
	k := cacheKey{period: period, pair: pair, block: wholeRowBlock}
	var gen, epoch uint64
	if t.cache != nil {
		if entries, ok := t.cache.get(k); ok {
			t.rows.Add(int64(len(entries)))
			return entries, nil
		}
		gen, epoch = t.cache.begin(k)
	}
	entries, err := t.getTailLocked(period, pair)
	if err != nil {
		return nil, err
	}
	t.rows.Add(int64(len(entries)))
	if sorted || t.cache != nil {
		sortIndexEntries(entries)
	}
	if t.cache != nil {
		t.cache.put(k, gen, epoch, entries)
	}
	return entries, nil
}

// mergeSortedEntries k-way merges sorted rows (the freeze folds a segment
// run with its memtable-tier row); k is tiny, so a linear minimum scan beats
// a heap.
func mergeSortedEntries(rows [][]IndexEntry) []IndexEntry {
	n := 0
	for _, r := range rows {
		n += len(r)
	}
	out := make([]IndexEntry, 0, n)
	pos := make([]int, len(rows))
	for len(out) < n {
		best := -1
		for i, r := range rows {
			if pos[i] >= len(r) {
				continue
			}
			if best < 0 || lessIndexEntry(r[pos[i]], rows[best][pos[best]]) {
				best = i
			}
		}
		out = append(out, rows[best][pos[best]])
		pos[best]++
	}
	return out
}

// DropPeriod retires an entire period partition of the index. When the
// segment tier holds rows of the period, they are hidden behind a persisted
// tombstone (the segment file is immutable) and physically discarded by the
// next freeze. The partition's completions raise its pairs' lastchecked rows
// (dropResidualLocked); drop, rows and tombstone commit in one atomic batch.
func (t *Tables) DropPeriod(period string) error {
	// Committing below syncs the WAL, which can fire the store's auto-freeze
	// hook on this goroutine while segMu is held; flag freezing so that call
	// no-ops instead of self-deadlocking. (If another goroutine is mid-freeze
	// the flag is already set, which serves the same purpose.)
	if t.freezing.CompareAndSwap(false, true) {
		defer t.freezing.Store(false)
	}
	t.segMu.Lock()
	defer t.segMu.Unlock()
	needTomb := t.seg != nil && t.seg.periods[period] > 0 && !t.segTomb[period]
	err := kvstore.Atomically(t.store, func() error {
		if err := t.dropResidualLocked(period); err != nil {
			return err
		}
		if period != "" {
			if err := t.store.Delete(tablePeriods, period); err != nil {
				return err
			}
		}
		if err := t.store.DropTable(indexTable(period)); err != nil {
			return err
		}
		if needTomb {
			return t.store.Put(tableMeta, metaSegDroppedKey, t.encodeTombstones(period))
		}
		return nil
	})
	if err != nil {
		return err
	}
	if needTomb {
		if t.segTomb == nil {
			t.segTomb = make(map[string]bool)
		}
		t.segTomb[period] = true
	}
	if period != "" {
		t.pmu.Lock()
		if t.periodsLoaded {
			ps := make([]string, 0, len(t.periods))
			for _, p := range t.periods {
				if p != period {
					ps = append(ps, p)
				}
			}
			t.periods = ps
		}
		t.pmu.Unlock()
	}
	t.cache.sweep(func(k cacheKey) bool { return k.period == period })
	return nil
}

func (t *Tables) registerPeriod(period string) error {
	t.pmu.RLock()
	known := t.periodsLoaded && containsPeriod(t.periods, period)
	t.pmu.RUnlock()
	if known {
		return nil // fast path: skip the idempotent store write too
	}
	if err := t.store.Put(tablePeriods, period, nil); err != nil {
		return err
	}
	t.pmu.Lock()
	if t.periodsLoaded && !containsPeriod(t.periods, period) {
		// Copy-on-write: snapshots already handed out stay immutable.
		ps := make([]string, 0, len(t.periods)+1)
		ps = append(ps, t.periods...)
		ps = append(ps, period)
		sort.Strings(ps)
		t.periods = ps
	}
	t.pmu.Unlock()
	return nil
}

func containsPeriod(sorted []string, period string) bool {
	i := sort.SearchStrings(sorted, period)
	return i < len(sorted) && sorted[i] == period
}

// periodsShared returns the cached sorted period list, loading it from the
// periods table on first use. The slice is shared — callers must not modify
// it.
func (t *Tables) periodsShared() ([]string, error) {
	t.pmu.RLock()
	if t.periodsLoaded {
		ps := t.periods
		t.pmu.RUnlock()
		return ps, nil
	}
	t.pmu.RUnlock()
	t.pmu.Lock()
	defer t.pmu.Unlock()
	if t.periodsLoaded {
		return t.periods, nil
	}
	var out []string
	err := t.store.Scan(tablePeriods, func(k string, _ []byte) error {
		out = append(out, k)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	t.periods, t.periodsLoaded = out, true
	return out, nil
}

// Periods lists the registered period partitions in sorted order.
func (t *Tables) Periods(_ context.Context) ([]string, error) {
	ps, err := t.periodsShared()
	if err != nil || len(ps) == 0 {
		return nil, err
	}
	return append([]string(nil), ps...), nil
}

// NumIndexedPairs returns the number of distinct pairs in one partition,
// counting pairs held only in the segment tier.
func (t *Tables) NumIndexedPairs(_ context.Context, period string) (int, error) {
	t.segMu.RLock()
	defer t.segMu.RUnlock()
	n, err := t.store.Len(indexTable(period))
	if err != nil {
		return 0, err
	}
	if t.seg != nil && !t.segTomb[period] && t.seg.periods[period] > 0 {
		for _, r := range t.seg.rows {
			if r.period != period {
				continue
			}
			_, inKV, err := t.store.Get(indexTable(period), pairKeyString(r.pair))
			if err != nil {
				return 0, err
			}
			if !inKV {
				n++
			}
		}
	}
	return n, nil
}

// ScanIndex iterates over all pairs of one partition. Pairs present in both
// tiers surface once, segment entries first; segment-only pairs follow the
// kvstore scan in directory (pair) order.
func (t *Tables) ScanIndex(ctx context.Context, period string, fn func(model.PairKey, []IndexEntry) error) error {
	t.segMu.RLock()
	defer t.segMu.RUnlock()
	done := ctx.Done()
	seg := t.seg
	useSeg := seg != nil && !t.segTomb[period] && seg.periods[period] > 0
	var seen map[model.PairKey]bool
	if useSeg {
		seen = make(map[model.PairKey]bool, seg.periods[period])
	}
	err := t.scanTails(period, func(pair model.PairKey, entries []IndexEntry) error {
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		if useSeg {
			if i, ok := seg.byKey[segKey{period: period, pair: pair}]; ok {
				seen[pair] = true
				head, err := newBlockRun(t, seg, i).All()
				if err != nil {
					return err
				}
				entries = append(head, entries...)
			}
		}
		return fn(pair, entries)
	})
	if err != nil || !useSeg {
		return err
	}
	for i, r := range seg.rows {
		if r.period != period || seen[r.pair] {
			continue
		}
		entries, err := newBlockRun(t, seg, i).All()
		if err != nil {
			return err
		}
		if err := fn(r.pair, entries); err != nil {
			return err
		}
	}
	return nil
}

// scanTails decodes every memtable-tier row of one partition.
func (t *Tables) scanTails(period string, fn func(model.PairKey, []IndexEntry) error) error {
	return t.store.Scan(indexTable(period), func(k string, v []byte) error {
		pair, err := parsePairKey(k)
		if err != nil {
			return err
		}
		entries, err := decodeIndexEntries(v)
		if err != nil {
			return err
		}
		return fn(pair, entries)
	})
}

// ---- Count table ------------------------------------------------------------

const maxCountLen = 5 + 2*binary.MaxVarintLen64 // a uint32 and two int64s

func appendCount(buf []byte, e CountEntry) []byte {
	buf = binary.AppendUvarint(buf, uint64(uint32(e.Other)))
	buf = binary.AppendVarint(buf, e.SumDuration)
	return binary.AppendVarint(buf, e.Completions)
}

func (r *reader) count() (e CountEntry, err error) {
	o, err := r.uvarint()
	if e.Other = model.ActivityID(uint32(o)); err == nil {
		e.SumDuration, err = r.varint()
	}
	if err == nil {
		e.Completions, err = r.varint()
	}
	return e, err
}

func decodeCounts(raw []byte) ([]CountEntry, error) {
	r := &reader{buf: raw}
	var entries []CountEntry
	for !r.done() {
		e, err := r.count()
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	return entries, nil
}

func cmpOther(a, b CountEntry) int { return cmp.Compare(a.Other, b.Other) }

// MergeCounts folds a batch delta into the Count row of first (pairs where
// first is the leading event). Rows are sorted by Other, which keeps them
// byte-identical regardless of batch split, so the delta merges into the
// row's bytes: only the entries it adds or sums are encoded.
func (t *Tables) MergeCounts(first model.ActivityID, delta []CountEntry) error {
	if len(delta) == 0 {
		return nil
	}
	if !slices.IsSortedFunc(delta, cmpOther) {
		delta = slices.Clone(delta)
		slices.SortFunc(delta, cmpOther)
	}
	k := activityKeyString(first)
	raw, _, err := t.store.Get(tableCount, k)
	if err != nil {
		return err
	}
	out := make([]byte, 0, len(raw)+maxCountLen*len(delta))
	r, last, i := &reader{buf: raw}, int64(math.MinInt64), 0
	for !r.done() {
		start := r.off
		e, err := r.count()
		if err != nil || int64(e.Other) <= last {
			return ErrCorrupt // undecodable, or Others not strictly ascending
		}
		last = int64(e.Other)
		for i < len(delta) && delta[i].Other < e.Other {
			out, i = appendSum(out, delta[i], delta, i+1)
		}
		if i < len(delta) && delta[i].Other == e.Other {
			out, i = appendSum(out, e, delta, i)
		} else {
			out = append(out, raw[start:r.off]...)
		}
	}
	for i < len(delta) {
		out, i = appendSum(out, delta[i], delta, i+1)
	}
	return t.store.Put(tableCount, k, out)
}

// appendSum adds to e the run of delta from i on that shares its Other,
// encodes the sum and returns the index past the run.
func appendSum(out []byte, e CountEntry, delta []CountEntry, i int) ([]byte, int) {
	for ; i < len(delta) && delta[i].Other == e.Other; i++ {
		e.SumDuration += delta[i].SumDuration
		e.Completions += delta[i].Completions
	}
	return appendCount(out, e), i
}

// GetCounts returns the Count row of first: one entry per successor event.
func (t *Tables) GetCounts(_ context.Context, first model.ActivityID) ([]CountEntry, error) {
	raw, _, err := t.store.Get(tableCount, activityKeyString(first))
	if err != nil {
		return nil, err
	}
	entries, err := decodeCounts(raw)
	t.rows.Add(int64(len(entries)))
	return entries, err
}

// GetPairCount returns the Count entry of the exact pair (a, b).
func (t *Tables) GetPairCount(ctx context.Context, a, b model.ActivityID) (CountEntry, bool, error) {
	entries, err := t.GetCounts(ctx, a)
	if err != nil {
		return CountEntry{}, false, err
	}
	for _, e := range entries {
		if e.Other == b {
			return e, true, nil
		}
	}
	return CountEntry{}, false, nil
}

// ---- LastChecked: a pair's latest completion --------------------------------
//
// The value is derived on read: the largest TsB of the pair's postings and
// its lastchecked row, the residual of dropped partitions that only
// DropPeriod writes (DESIGN §4). A row is one zigzag varint. Older builds
// wrote it on every flush, some as a per-trace map — (uvarint trace, varint
// ts) repeated, two or more varints — which decodes as its maximum, a lower
// bound of the answer, and becomes a scalar at the next drop that raises it.

func decodeLastCompletion(raw []byte) (model.Timestamp, error) {
	r := &reader{buf: raw}
	ts, err := r.varint()
	if err != nil || r.done() {
		return model.Timestamp(ts), err
	}
	r.off, ts = 0, math.MinInt64
	for !r.done() {
		if _, err := r.uvarint(); err != nil {
			return 0, err
		}
		v, err := r.varint()
		if err != nil {
			return 0, err
		}
		if v > ts {
			ts = v
		}
	}
	return model.Timestamp(ts), nil
}

// GetLastCompletion returns the pair's latest completion timestamp over all
// traces and periods, dropped ones included; 0 when it never completed.
func (t *Tables) GetLastCompletion(_ context.Context, pair model.PairKey) (model.Timestamp, error) {
	po, err := t.postings(pair, false)
	if err != nil {
		return 0, err
	}
	last, _, err := t.lastCompletion(pair, po.LastTsB())
	if err != nil || last == math.MinInt64 {
		return 0, err
	}
	return last, nil
}

// lastCompletion raises ts, the largest TsB read from postings, to the
// pair's lastchecked row, and returns the row as stored.
func (t *Tables) lastCompletion(pair model.PairKey, ts model.Timestamp) (model.Timestamp, []byte, error) {
	raw, ok, err := t.store.Get(tableLast, pairKeyString(pair))
	if err == nil && ok {
		var row model.Timestamp
		row, err = decodeLastCompletion(raw)
		ts = max(ts, row)
	}
	return ts, raw, err
}

// dropResidualLocked raises the lastchecked row of every pair of period to
// the largest TsB the drop deletes. It runs in DropPeriod's group, segMu
// held; segment rows behind a tombstone were folded in by an earlier drop.
func (t *Tables) dropResidualLocked(period string) error {
	last := map[model.PairKey]model.Timestamp{}
	raise := func(pair model.PairKey, run PostingsRun) {
		ts := Postings{Runs: []PostingsRun{run}}.LastTsB()
		if cur, ok := last[pair]; !ok || ts > cur {
			last[pair] = ts
		}
	}
	if t.seg != nil && !t.segTomb[period] {
		for _, i := range segRowsOfPeriod(t.seg, period) {
			raise(t.seg.rows[i].pair, PostingsRun{Blocks: newBlockRun(nil, t.seg, i)})
		}
	}
	err := t.scanTails(period, func(pair model.PairKey, entries []IndexEntry) error {
		raise(pair, PostingsRun{Entries: entries})
		return nil
	})
	for pair, ts := range last {
		var raw []byte
		if err == nil {
			ts, raw, err = t.lastCompletion(pair, ts)
		}
		if row := binary.AppendVarint(nil, int64(ts)); err == nil && !bytes.Equal(row, raw) {
			err = t.store.Put(tableLast, pairKeyString(pair), row)
		}
	}
	return err
}

// ---- Meta table ---------------------------------------------------------

// PutMeta stores a small piece of engine metadata (alphabet, policy, ...).
func (t *Tables) PutMeta(key string, value []byte) error {
	return t.store.Put(tableMeta, key, value)
}

// GetMeta retrieves engine metadata.
func (t *Tables) GetMeta(key string) ([]byte, bool, error) {
	return t.store.Get(tableMeta, key)
}
