// Package index implements the pre-processing component of §3.1 of the
// paper: it turns batches of new log events into updates of the inverted
// pair index and its auxiliary tables (Seq and Count; a pair's latest
// completion is read from the index), processing traces in
// parallel exactly as the paper's Spark job does, and deduplicating
// re-extracted pairs across batches on the Seq boundary, which admits the
// same occurrences as Algorithm 1's per-pair watermark.
//
// It is the batch reference: the paper experiments (Tables 5-6) and the
// serial-equivalence oracles run it, while the engine ingests through
// internal/ingest. Both apply the same per-trace rule, pairs.Rule, and both
// write a batch as one storage.Delta through storage.Backend.Commit, so the
// oracles compare extraction, and Commit has its own reference test
// (storage's TestCommitMatchesRowWrites).
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
// single-store or sharded; Commit routes each row to its owning store
// either way.
func NewBuilder(tables storage.Backend, opts Options) (*Builder, error) {
	rule := pairs.Rule{Policy: opts.Policy, Method: opts.Method, PartialOrder: opts.PartialOrder}
	if err := rule.Validate(); err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	return &Builder{tables: tables, opts: opts, rule: rule}, nil
}

// Update implements Algorithm 1: the batch is grouped into traces, each
// trace is merged with its stored prefix, pairs are re-extracted over the
// full sequence, and only occurrences completing after the stored watermark
// are appended to the index — so re-processing a trace across periods never
// duplicates pairs. The batch's rows go to the tables in one Commit, the
// ingest pipeline's writer, and Update returns once they are durable.
//
// Deviation from the paper, documented in DESIGN.md §4: Algorithm 1 filters
// on a per-(pair, trace) watermark kept in the LastChecked table; because
// pair extraction is prefix-stable, filtering on the trace-level boundary
// (the timestamp of the last Seq event of the trace) admits exactly the same
// occurrences with one watermark instead of |pairs| of them. The watermark
// is therefore the Seq row, and an update writes no LastChecked row: the
// statistics read a pair's latest completion from its postings.
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

	// Traces extend in parallel, one run of consecutive ids per worker, each
	// run into its own delta. The runs merge in id order, so each pair's
	// entries arrive sorted by trace, the order Commit writes them in.
	runs := min(len(ids), parallel.Workers(b.opts.Workers))
	parts := make([]*storage.Delta, runs)
	err := parallel.ForEach(runs, b.opts.Workers, func(r int) error {
		part := storage.NewDelta()
		for _, id := range ids[r*len(ids)/runs : (r+1)*len(ids)/runs] {
			old, _, err := b.tables.GetSeq(context.Background(), id)
			if err != nil {
				return err
			}
			full, res, _, err := b.rule.Extend(old, byTrace[id], nil)
			if err != nil {
				return fmt.Errorf("index: trace %d: %w", id, err)
			}
			part.Seqs[id] = full[len(old):]
			for k, occ := range res {
				es := part.Entries[k]
				for _, o := range occ {
					es = append(es, storage.IndexEntry{Trace: id, TsA: o.TsA, TsB: o.TsB})
				}
				part.Entries[k] = es
			}
		}
		parts[r] = part
		return nil
	})
	if err != nil {
		return Stats{}, err
	}
	d := parts[0]
	for _, part := range parts[1:] {
		for id, evs := range part.Seqs {
			d.Seqs[id] = evs
		}
		for k, es := range part.Entries {
			d.Entries[k] = append(d.Entries[k], es...)
		}
	}
	stats := Stats{Traces: len(ids), Events: len(events), Pairs: len(d.Entries)}
	for _, es := range d.Entries {
		stats.Occurrences += len(es)
	}
	waits, err := b.tables.Commit(b.opts.Period, d)
	for _, w := range waits {
		if err == nil && w != nil {
			err = w.Wait()
		}
	}
	if err != nil {
		return Stats{}, err
	}
	return stats, nil
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
