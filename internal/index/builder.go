// Package index implements the pre-processing component of §3.1 of the
// paper: it turns batches of new log events into updates of the inverted
// pair index and its auxiliary tables (Seq, Count, and the per-pair latest
// completion kept in LastChecked), processing traces in
// parallel exactly as the paper's Spark job does, and deduplicating
// re-extracted pairs across batches on the Seq boundary, which admits the
// same occurrences as Algorithm 1's per-pair watermark.
//
// It is the batch reference: the paper experiments (Tables 5-6) and the
// serial-equivalence oracles run it, while the engine ingests through
// internal/ingest. Both apply the same per-trace rule, pairs.Rule.
package index

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"seqlog/internal/model"
	"seqlog/internal/pairs"
	"seqlog/internal/parallel"
	"seqlog/internal/storage"
)

// Options configure a Builder.
type Options struct {
	// Policy selects the pair semantics: model.SC or model.STNM. STAM is
	// not indexable with non-overlapping pairs and is rejected.
	Policy model.Policy
	// Method selects the STNM extraction flavor (§4.2); ignored for SC.
	Method pairs.Method
	// Workers bounds the per-trace parallelism; 0 means all cores
	// (the paper's "all available machine cores" Spark mode), 1 is the
	// single-executor mode of Table 6.
	Workers int
	// Period names the index partition receiving this builder's batches
	// ("" is the default partition). The paper suggests one partition per
	// month to keep individual index tables bounded (§3.1.3).
	Period string
	// PartialOrder treats same-timestamp events of a trace as concurrent
	// (§7 of the paper): pairs require strict timestamp order and ties are
	// never bumped apart. Requires the STNM policy, and batches may not
	// reach back in time: new events of a known trace must be strictly
	// later than its stored ones.
	PartialOrder bool
}

// Stats summarise one Update call.
type Stats struct {
	Traces      int // traces touched by the batch
	Events      int // new events ingested
	Pairs       int // distinct pairs receiving new occurrences
	Occurrences int // new pair occurrences appended to the index
}

// Builder is the pre-processing component. A Builder is safe for concurrent
// use: Update and PruneTraces calls may overlap and are serialized by an
// internal mutex (the paper's updates are periodic and serial; concurrent
// callers simply queue). Note the serialization is per-Builder — two
// Builders over the same Tables still race.
type Builder struct {
	mu     sync.Mutex // serializes Update / PruneTraces
	tables storage.Backend
	opts   Options
	rule   pairs.Rule
}

// NewBuilder returns a builder writing through the given tables —
// single-store or sharded; the Backend routes each write to its owning
// store either way.
func NewBuilder(tables storage.Backend, opts Options) (*Builder, error) {
	rule := pairs.Rule{Policy: opts.Policy, Method: opts.Method, PartialOrder: opts.PartialOrder}
	if err := rule.Validate(); err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	return &Builder{tables: tables, opts: opts, rule: rule}, nil
}

// shardOf maps a pair key onto its accumulator shard with a Fibonacci mix,
// so adjacent activity ids do not pile into one shard.
func shardOf(k model.PairKey) int {
	return int((uint64(k) * 0x9E3779B97F4A7C15) >> 32 % numShards)
}

// countAccum accumulates Count deltas for one leading activity.
type countAccum map[model.ActivityID]*storage.CountEntry

// shard groups accumulators under one lock so extraction workers can merge
// their per-trace results concurrently.
type shard struct {
	mu     sync.Mutex
	pairs  map[model.PairKey][]storage.IndexEntry // new index entries of the batch
	counts map[model.ActivityID]countAccum        // keyed by first activity
}

const numShards = 16

// Update implements Algorithm 1: the batch is grouped into traces, each
// trace is merged with its stored prefix, pairs are re-extracted over the
// full sequence, and only occurrences completing after the stored watermark
// are appended to the index — so re-processing a trace across periods never
// duplicates pairs.
//
// Deviation from the paper, documented in DESIGN.md §4: Algorithm 1 filters
// on a per-(pair, trace) watermark kept in the LastChecked table; because
// pair extraction is prefix-stable, filtering on the trace-level boundary
// (the timestamp of the last Seq event of the trace) admits exactly the same
// occurrences with one watermark instead of |pairs| of them. The watermark
// is therefore the Seq row, and LastChecked keeps only what the statistics
// queries read: each pair's latest completion timestamp.
func (b *Builder) Update(events []model.Event) (Stats, error) {
	if len(events) == 0 {
		return Stats{}, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()

	byTrace := make(map[model.TraceID][]model.TraceEvent)
	for _, ev := range events {
		byTrace[ev.Trace] = append(byTrace[ev.Trace], model.TraceEvent{Activity: ev.Activity, TS: ev.TS})
	}
	ids := make([]model.TraceID, 0, len(byTrace))
	for id := range byTrace {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	shards := make([]shard, numShards)
	for i := range shards {
		shards[i].pairs = make(map[model.PairKey][]storage.IndexEntry)
		shards[i].counts = make(map[model.ActivityID]countAccum)
	}

	stats := Stats{Traces: len(ids), Events: len(events)}

	err := parallel.ForEach(len(ids), b.opts.Workers, func(i int) error {
		return b.updateTrace(ids[i], byTrace[ids[i]], shards)
	})
	if err != nil {
		return Stats{}, err
	}

	// Write phase, pairs first: every pair key lives in exactly one
	// accumulator shard, so the index and LastChecked rows flush
	// concurrently without write conflicts.
	var mu sync.Mutex
	err = parallel.ForEach(numShards, b.opts.Workers, func(i int) error {
		s := &shards[i]
		localPairs, localOcc := 0, 0
		for k, entries := range s.pairs {
			if err := b.tables.AppendIndex(b.opts.Period, k, entries); err != nil {
				return err
			}
			if err := b.tables.MergeLastCompletion(k, storage.LastCompletion(entries)); err != nil {
				return err
			}
			localPairs++
			localOcc += len(entries)
		}
		mu.Lock()
		stats.Pairs += localPairs
		stats.Occurrences += localOcc
		mu.Unlock()
		return nil
	})
	if err != nil {
		return Stats{}, err
	}

	// Count rows are keyed by activity, and one activity's pairs hash into
	// several accumulator shards, so flushing counts shard-by-shard would
	// issue concurrent read-modify-writes on the same row — a lost-update
	// race. Regroup the deltas per activity and flush with one writer per
	// row: keys are disjoint, so this fan-out is conflict-free.
	rows := make(map[model.ActivityID][]countAccum)
	for i := range shards {
		for a, acc := range shards[i].counts {
			rows[a] = append(rows[a], acc)
		}
	}
	acts := make([]model.ActivityID, 0, len(rows))
	for a := range rows {
		acts = append(acts, a)
	}
	sort.Slice(acts, func(i, j int) bool { return acts[i] < acts[j] })
	err = parallel.ForEach(len(acts), b.opts.Workers, func(i int) error {
		return b.tables.MergeCounts(acts[i], countDelta(rows[acts[i]]))
	})
	if err != nil {
		return Stats{}, err
	}
	return stats, nil
}

// countDelta flattens one row's accumulators into a delta, summing entries
// for the same successor and sorting for reproducible rows.
func countDelta(accs []countAccum) []storage.CountEntry {
	merged := make(map[model.ActivityID]storage.CountEntry)
	for _, acc := range accs {
		for o, e := range acc {
			m := merged[o]
			m.Other = o
			m.SumDuration += e.SumDuration
			m.Completions += e.Completions
			merged[o] = m
		}
	}
	out := make([]storage.CountEntry, 0, len(merged))
	for _, e := range merged {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Other < out[j].Other })
	return out
}

// updateTrace processes one trace of the batch: extend the stored prefix by
// the shared per-trace rule (pairs.Rule) and push the new occurrences into
// the shared shards.
func (b *Builder) updateTrace(id model.TraceID, newEvents []model.TraceEvent, shards []shard) error {
	old, _, err := b.tables.GetSeq(context.Background(), id)
	if err != nil {
		return err
	}
	full, res, _, err := b.rule.Extend(old, newEvents, nil)
	if err != nil {
		return fmt.Errorf("index: trace %d: %w", id, err)
	}

	// Group this trace's contributions by destination shard to amortise
	// locking: one lock acquisition per touched shard, not per pair.
	type contrib struct {
		key model.PairKey
		occ []pairs.Occurrence
	}
	grouped := make(map[int][]contrib)
	for k, occ := range res {
		si := shardOf(k)
		grouped[si] = append(grouped[si], contrib{key: k, occ: occ})
	}

	for si, contribs := range grouped {
		s := &shards[si]
		s.mu.Lock()
		for _, c := range contribs {
			a, bb := c.key.First(), c.key.Second()
			fw := s.counts[a]
			if fw == nil {
				fw = make(countAccum)
				s.counts[a] = fw
			}
			fe := fw[bb]
			if fe == nil {
				fe = &storage.CountEntry{Other: bb}
				fw[bb] = fe
			}
			entries := s.pairs[c.key]
			for _, o := range c.occ {
				entries = append(entries, storage.IndexEntry{Trace: id, TsA: o.TsA, TsB: o.TsB})
				fe.SumDuration += int64(o.TsB - o.TsA)
				fe.Completions++
			}
			s.pairs[c.key] = entries
		}
		s.mu.Unlock()
	}

	return b.tables.AppendSeq(id, full[len(old):])
}

// PruneTraces removes completed traces from the Seq table (§3.1.3), the only
// per-trace mutable state. The inverted index keeps their occurrences and the
// statistics tables their history.
func (b *Builder) PruneTraces(ids []model.TraceID) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, id := range ids {
		if err := b.tables.DeleteSeq(id); err != nil {
			return err
		}
	}
	return nil
}
