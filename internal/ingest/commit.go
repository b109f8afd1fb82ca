package ingest

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"seqlog/internal/kvstore"
	"seqlog/internal/model"
	"seqlog/internal/pairs"
	"seqlog/internal/parallel"
	"seqlog/internal/storage"
)

// shardDelta is the table delta one shard contributes to a flush cycle:
// normalized new events per trace and new index entries per pair. The Count
// increments are sums over the entries, taken when the delta is written.
// The same shape doubles as the per-STORE partition the reducer produces.
type shardDelta struct {
	traces  []model.TraceID // first-appearance order, for determinism
	seqs    map[model.TraceID][]model.TraceEvent
	entries map[model.PairKey][]storage.IndexEntry
	// scanned and loaded count the events the rule read to pair the new
	// ones and the events read from Seq rows into sessions.
	scanned, loaded int
}

func newShardDelta() *shardDelta {
	return &shardDelta{
		seqs:    make(map[model.TraceID][]model.TraceEvent),
		entries: make(map[model.PairKey][]storage.IndexEntry),
	}
}

func (d *shardDelta) empty() bool {
	return len(d.seqs) == 0 && len(d.entries) == 0
}

// add folds one trace's flush result into the delta.
func (d *shardDelta) add(id model.TraceID, evs []model.TraceEvent, res pairs.Result) {
	if _, seen := d.seqs[id]; !seen {
		d.traces = append(d.traces, id)
	}
	d.seqs[id] = append(d.seqs[id], evs...)
	for k, occ := range res {
		es := d.entries[k]
		for _, o := range occ {
			es = append(es, storage.IndexEntry{Trace: id, TsA: o.TsA, TsB: o.TsB})
		}
		d.entries[k] = es
	}
}

// extractShard runs one shard's part of a flush cycle: group the inbox by
// trace (arrival order preserved — the inbox is per-shard FIFO), extend each
// trace's resident session by the rule, and collect the delta. Traces go in
// id order, so a pair's entries come out sorted when one shard fed them.
// Only the coordinator's extraction pass calls this (under cycleMu), so
// sessions need no locking.
func (p *Pipeline) extractShard(sh *ingestShard, inbox []model.Event) (*shardDelta, error) {
	byTrace := make(map[model.TraceID][]model.TraceEvent)
	var ids []model.TraceID
	for _, ev := range inbox {
		if _, ok := byTrace[ev.Trace]; !ok {
			ids = append(ids, ev.Trace)
		}
		byTrace[ev.Trace] = append(byTrace[ev.Trace], model.TraceEvent{Activity: ev.Activity, TS: ev.TS})
	}
	slices.Sort(ids)
	d := newShardDelta()
	for _, id := range ids {
		sess := sh.sessions[id]
		if sess == nil {
			old, _, err := p.tables.GetSeq(context.Background(), id)
			if err != nil {
				return nil, err
			}
			sess = &session{id: id, events: old}
			sess.tally.Add(old)
			sh.sessions[id] = sess
			sh.resident += len(old)
			d.loaded += len(old)
		}
		stored := len(sess.events)
		full, res, n, err := p.rule.Extend(sess.events, byTrace[id], &sess.tally)
		if err != nil {
			return nil, fmt.Errorf("ingest: trace %d: %w", id, err)
		}
		sess.events, sess.cycle = full, p.cycles
		sh.resident += len(full) - stored
		sh.fed(sess)
		d.add(id, full[stored:], res)
		d.scanned += n
	}
	return d, nil
}

// mergeDeltas folds the per-shard deltas into the first one. Traces are
// disjoint across shards (affinity sharding), so Seq rows concatenate; pair
// rows may collide and are concatenated.
func mergeDeltas(deltas []*shardDelta) *shardDelta {
	var out *shardDelta
	for _, d := range deltas {
		if d == nil {
			continue
		}
		if out == nil {
			out = d
			continue
		}
		for _, id := range d.traces {
			if _, seen := out.seqs[id]; !seen {
				out.traces = append(out.traces, id)
			}
			out.seqs[id] = append(out.seqs[id], d.seqs[id]...)
		}
		for k, es := range d.entries {
			out.entries[k] = append(out.entries[k], es...)
		}
	}
	return out
}

// partitionDeltas is the cross-shard reducer: it re-keys the per-AFFINITY
// deltas into per-STORE partitions, using the backend's own routing so every
// row of partition i is guaranteed to land inside store i's open WAL group
// when written through the ordinary Backend methods. With a single store it
// degenerates to the old full merge. The outer loop runs in affinity-delta
// order, so per-pair appends stay deterministic (and the commit re-sorts
// entries within the cycle anyway).
func (p *Pipeline) partitionDeltas(deltas []*shardDelta) []*shardDelta {
	if len(p.stores) == 1 {
		return []*shardDelta{mergeDeltas(deltas)}
	}
	parts := make([]*shardDelta, len(p.stores))
	part := func(i int) *shardDelta {
		if parts[i] == nil {
			parts[i] = newShardDelta()
		}
		return parts[i]
	}
	for _, d := range deltas {
		if d == nil {
			continue
		}
		for _, id := range d.traces {
			t := part(p.route.ShardForTrace(id))
			if _, seen := t.seqs[id]; !seen {
				t.traces = append(t.traces, id)
			}
			t.seqs[id] = append(t.seqs[id], d.seqs[id]...)
		}
		// Count increments are derived from a pair's entries, so they land
		// where the pair routes, as the sharded backend's own MergeCounts
		// splitting puts them.
		for k, es := range d.entries {
			t := part(p.route.ShardForPair(k))
			t.entries[k] = append(t.entries[k], es...)
		}
	}
	return parts
}

// commitJob writes one cycle's per-store partitions through the tables, one
// crash-atomic WAL group per touched store, written in parallel and sealed
// without waiting for fsync (the durability handles travel on the job to the
// acker). Atomicity is per store, exactly as it was for the fan-out group
// writer: a crash between two stores' seals leaves individually-consistent
// stores that may disagree about the flush, and watermark dedup makes the
// replay idempotent. One cross-store ordering is enforced: when the
// BeforeCommit hook reports alphabet growth, store 0's group (which carries
// the meta row) is sealed and made durable before any other store's group
// seals, so recovery can never see data rows whose activities the durable
// alphabet doesn't know.
func (p *Pipeline) commitJob(job *flushJob) error {
	if p.opts.CommitLock != nil {
		p.opts.CommitLock.Lock()
		defer p.opts.CommitLock.Unlock()
	}

	open := make([]bool, len(p.stores))
	abortOpen := func(cause error) {
		for i, b := range open {
			if b {
				p.stores[i].batch.AbortBatch(cause)
				open[i] = false
			}
		}
	}
	for i := range p.stores {
		needs := job.parts[i] != nil && !job.parts[i].empty()
		if i == 0 && p.opts.BeforeCommit != nil {
			// The hook may write the meta row even when store 0 got no data
			// this cycle; its group must be open to keep that write atomic.
			needs = true
		}
		if !needs {
			continue
		}
		if err := p.stores[i].batch.BeginBatch(); err != nil {
			abortOpen(err)
			return err
		}
		open[i] = true
		job.syncs = 1
	}

	// Table writes for all touched stores run concurrently: each partition's
	// rows route to exactly one store, so the writers never contend on a
	// store's batch state.
	writers := 0
	for i := range p.stores {
		if job.parts[i] != nil && !job.parts[i].empty() {
			writers++
		}
	}
	if writers > 0 {
		err := parallel.ForEach(len(p.stores), writers, func(i int) error {
			d := job.parts[i]
			if d == nil || d.empty() {
				return nil
			}
			return p.writeDelta(d, job.period)
		})
		if err != nil {
			abortOpen(err)
			return err
		}
	}

	metaGrew := false
	if p.opts.BeforeCommit != nil {
		grew, err := p.opts.BeforeCommit()
		if err != nil {
			abortOpen(err)
			return err
		}
		metaGrew = grew
	}

	job.waits = make([]kvstore.Durability, len(p.stores))
	seal := func(i int) error {
		open[i] = false
		if gc, ok := p.stores[i].batch.(kvstore.GroupCommitter); ok {
			d, err := gc.SealBatch()
			if err != nil {
				return err
			}
			job.waits[i] = d
		} else if err := p.stores[i].batch.CommitBatch(); err != nil {
			return err
		}
		p.stores[i].flushes.Add(1)
		return nil
	}

	if metaGrew && open[0] && len(p.stores) > 1 {
		// Alphabet grew: store 0 must be durable before any other store's
		// group seals (see the function comment).
		if err := seal(0); err != nil {
			abortOpen(err)
			return err
		}
		if job.waits[0] != nil {
			if err := job.waits[0].Wait(); err != nil {
				abortOpen(err)
				return err
			}
			job.waits[0] = nil
		}
	}

	// Seal the remaining open groups. Keep-going on error: a store that
	// fails to seal must not throw away the sealed work of the others, so
	// every store gets its seal attempt and the first error poisons the
	// pipeline afterwards.
	var first error
	for i := range p.stores {
		if !open[i] {
			continue
		}
		if err := seal(i); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// writeDelta streams one store partition through the tables in sorted,
// reproducible order. The caller has already opened the target store's WAL
// group; routing determinism guarantees every write here lands inside it.
// Pairs go in key order, so the pairs of one leading activity are contiguous:
// their Count increments — completions and summed durations of the entries —
// are merged into its Count row once, after its last pair.
func (p *Pipeline) writeDelta(d *shardDelta, period string) (err error) {
	sort.Slice(d.traces, func(i, j int) bool { return d.traces[i] < d.traces[j] })
	for _, id := range d.traces {
		if err = p.tables.AppendSeq(id, d.seqs[id]); err != nil {
			return err
		}
	}

	keys := make([]model.PairKey, 0, len(d.entries))
	for k := range d.entries {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var counts []storage.CountEntry
	for i, k := range keys {
		es := d.entries[k]
		// Within a cycle a pair's entries come from many traces; keep a
		// canonical order inside the appended chunk.
		less := func(i, j int) bool {
			if es[i].Trace != es[j].Trace {
				return es[i].Trace < es[j].Trace
			}
			return es[i].TsB < es[j].TsB
		}
		if !sort.SliceIsSorted(es, less) {
			sort.Slice(es, less)
		}
		if err = p.tables.AppendIndex(period, k, es); err != nil {
			return err
		}
		c := storage.CountEntry{Other: k.Second(), Completions: int64(len(es))}
		for _, e := range es {
			c.SumDuration += int64(e.TsB - e.TsA)
		}
		counts = append(counts, c)
		if i+1 == len(keys) || keys[i+1].First() != k.First() {
			if err = p.tables.MergeCounts(k.First(), counts); err != nil {
				return err
			}
			counts = counts[:0]
		}
	}
	return nil
}
