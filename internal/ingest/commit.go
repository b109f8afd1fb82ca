package ingest

import (
	"context"
	"fmt"
	"slices"

	"seqlog/internal/model"
	"seqlog/internal/pairs"
	"seqlog/internal/storage"
)

// shardDelta is the table delta one affinity shard contributes to a flush
// cycle: normalized new events per trace and new index entries per pair.
// The Count increments are sums over the entries, taken when the delta is
// committed.
type shardDelta struct {
	*storage.Delta
	// scanned and loaded count the events the rule read to pair the new
	// ones and the events read from Seq rows into sessions.
	scanned, loaded int
}

// add folds one trace's flush result into the delta.
func (d *shardDelta) add(id model.TraceID, evs []model.TraceEvent, res pairs.Result) {
	d.Seqs[id] = append(d.Seqs[id], evs...)
	for k, occ := range res {
		es := d.Entries[k]
		for _, o := range occ {
			es = append(es, storage.IndexEntry{Trace: id, TsA: o.TsA, TsB: o.TsB})
		}
		d.Entries[k] = es
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
	d := &shardDelta{Delta: storage.NewDelta()}
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

// mergeDeltas folds the per-shard deltas into the first one's Delta. Traces
// are disjoint across shards (affinity sharding), so Seq rows move over;
// pair rows may collide and are concatenated.
func mergeDeltas(deltas []*shardDelta) *storage.Delta {
	var out *storage.Delta
	for _, d := range deltas {
		if d == nil {
			continue
		}
		if out == nil {
			out = d.Delta
			continue
		}
		for id, evs := range d.Seqs {
			out.Seqs[id] = evs
		}
		for k, es := range d.Entries {
			out.Entries[k] = append(out.Entries[k], es...)
		}
	}
	return out
}

// commitJob writes one cycle through the backend's Commit, under the
// engine's CommitLock and with the meta rows BeforeCommit hands over, and
// keeps the per-store durability handles for the acker. Each store's part
// is one crash-atomic group, sealed without waiting for its fsync.
func (p *Pipeline) commitJob(job *flushJob) error {
	if p.opts.CommitLock != nil {
		p.opts.CommitLock.Lock()
		defer p.opts.CommitLock.Unlock()
	}
	if p.opts.BeforeCommit != nil {
		job.delta.Meta = p.opts.BeforeCommit()
	}
	waits, err := p.tables.Commit(job.period, job.delta)
	if err != nil {
		return err
	}
	job.waits = waits
	for i, w := range waits {
		if w != nil {
			job.syncs = 1
			p.stores[i].flushes.Add(1)
		}
	}
	return nil
}
