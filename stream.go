package seqlog

import (
	"context"
	"fmt"

	"seqlog/internal/ingest"
	"seqlog/internal/model"
	"seqlog/internal/pairs"
)

// ErrOverloaded is returned by a non-blocking stream Append when the
// pipeline's input queue is full. Nothing of the batch was enqueued; the
// caller should retry after a flush drains the queue.
var ErrOverloaded = ingest.ErrOverloaded

// ErrReachesBack is wrapped by the error of a partial-order batch (Ingest)
// or Append that does not start strictly after the timestamps its trace
// already holds. Nothing of it was admitted; the engine carries on.
var ErrReachesBack = pairs.ErrReachesBack

// StreamOptions tunes one appender. The pipeline it feeds is sized by the
// engine Config (Workers, FlushEvents, FlushInterval, IngestQueue); at most
// two flush cycles are past extraction at once, so the next cycle's
// extraction overlaps the last one's fsync.
type StreamOptions struct {
	// Block makes Append wait for queue space instead of returning
	// ErrOverloaded.
	Block bool
}

// IngestStats mirrors the counters of the ingestion pipeline.
type IngestStats struct {
	Queued   int64 `json:"queued"`
	Accepted int64 `json:"accepted"`
	Flushed  int64 `json:"flushed"`
	Batches  int64 `json:"batches"`
	Syncs    int64 `json:"syncs"`
	Stalls   int64 `json:"stalls"`
	Sessions int64 `json:"sessions,omitempty"`
	// Reextracted counts the events handed to pair extraction.
	Reextracted int64 `json:"reextracted"`
}

// Appender is one handle onto the engine's shared ingestion pipeline. All
// appenders — and every Ingest call — feed the same pipeline; the last
// Close drains it with a final group commit. An Appender is safe for
// concurrent use, but events of one trace must be appended in timestamp
// order (across all its appenders) for the serial-equivalence guarantee.
type Appender struct {
	e      *Engine
	p      *ingest.Pipeline
	block  bool
	closed bool
}

// OpenStream opens (or joins) the engine's ingestion pipeline. The first
// holder starts it; later calls return additional appenders onto it. An
// acknowledged Flush is durable on disk-backed engines: each flush commits
// as one atomic WAL group per store.
func (e *Engine) OpenStream(opts StreamOptions) (*Appender, error) {
	if err := e.readOnlyErr(); err != nil {
		return nil, err
	}
	e.pipeMu.Lock()
	defer e.pipeMu.Unlock()
	for {
		for e.draining != nil {
			e.drained.Wait()
		}
		failed := e.pipeline
		if failed == nil || failed.Err() == nil {
			break
		}
		// A failed pipeline refuses every append; detach it so this caller
		// starts afresh. Its holders keep their handles and see the error,
		// so the drain's error is theirs, not this caller's.
		e.pipeline, e.streams, e.draining = nil, 0, failed
		e.pipeMu.Unlock()
		e.drain(failed)
		e.pipeMu.Lock()
	}
	if e.pipeline == nil {
		rule := e.rule()
		p, err := ingest.New(e.tables, ingest.Options{
			Policy:        rule.Policy,
			PartialOrder:  rule.PartialOrder,
			Period:        e.cfg.Period,
			Workers:       e.cfg.Workers,
			FlushEvents:   e.cfg.FlushEvents,
			FlushInterval: e.cfg.FlushInterval,
			QueueEvents:   e.cfg.IngestQueue,
			CommitLock:    &e.mu,
			BeforeCommit:  e.persistAlphabetIfGrown,
			Metrics:       e.metrics,
		})
		if err != nil {
			return nil, err
		}
		e.pipeline = p
	}
	e.streams++
	return &Appender{e: e, p: e.pipeline, block: opts.Block}, nil
}

// PartialOrder reports whether the engine keeps same-timestamp events
// concurrent, so a streaming client must keep each tie group in one Append.
func (e *Engine) PartialOrder() bool { return e.rule().PartialOrder }

// persistAlphabetIfGrown persists the interned alphabet when it grew since
// the last persist, reporting whether it wrote. It runs under e.mu — as the
// pipeline's BeforeCommit hook it executes inside the flush's atomic batch
// group, so new activity names become durable in the same fsync as the
// events that introduced them; on a sharded backend the pipeline uses the
// grew report to force the meta store's group durable before the other
// shards' groups seal.
func (e *Engine) persistAlphabetIfGrown() (bool, error) {
	if n := e.alphabet.Len(); n != e.persistedActs {
		if err := e.persistAlphabet(); err != nil {
			return false, err
		}
		e.persistedActs = n
		return true, nil
	}
	return false, nil
}

// intern converts public events to model events. Alphabet interning is
// thread-safe, so appenders do not contend on the engine mutex.
func (e *Engine) intern(events []Event) []model.Event {
	batch := make([]model.Event, len(events))
	for i, ev := range events {
		batch[i] = model.Event{
			Trace:    model.TraceID(ev.Trace),
			Activity: e.alphabet.ID(ev.Activity),
			TS:       model.Timestamp(ev.Time),
		}
	}
	return batch
}

// Append admits events into the stream. In non-blocking mode a full queue
// returns ErrOverloaded and admits nothing.
func (a *Appender) Append(events []Event) error {
	return a.AppendCtx(context.Background(), events)
}

// AppendCtx is Append with a cancellable admission wait: a caller blocked on
// backpressure unblocks with ctx.Err() when ctx is done, and in that case
// nothing of the batch was admitted — admission is all-or-nothing.
func (a *Appender) AppendCtx(ctx context.Context, events []Event) error {
	if a.closed {
		return ingest.ErrClosed
	}
	return a.p.AppendCtx(ctx, a.e.intern(events), a.block)
}

// Flush commits everything this appender admitted and blocks until the
// commit is durable (fsynced on disk-backed engines).
func (a *Appender) Flush() error {
	return a.FlushCtx(context.Background())
}

// FlushCtx is Flush with a cancellable wait: when ctx is done the caller
// unblocks with ctx.Err() while the flush itself keeps running (other
// appenders may be relying on it).
func (a *Appender) FlushCtx(ctx context.Context) error {
	if a.closed {
		return ingest.ErrClosed
	}
	return a.p.FlushCtx(ctx)
}

// Stats snapshots the shared pipeline counters.
func (a *Appender) Stats() IngestStats {
	return IngestStats(a.p.Stats())
}

// Close detaches this appender. The last Close drains the pipeline with a
// final group commit and stops it; a later OpenStream starts a fresh one.
func (a *Appender) Close() error {
	if a.closed {
		return nil
	}
	a.closed = true
	e := a.e
	e.pipeMu.Lock()
	last := false
	if e.pipeline == a.p { // else it failed or Engine.Close drained it
		e.streams--
		if last = e.streams == 0; last {
			e.pipeline, e.draining = nil, a.p
		}
	}
	e.pipeMu.Unlock()
	if !last {
		return nil
	}
	if err := e.drain(a.p); err != nil {
		return fmt.Errorf("seqlog: draining ingestion stream: %w", err)
	}
	return nil
}

// drain closes p, detached from the engine as e.draining, and folds its
// counters into the engine totals. OpenStream waits for it before starting
// a successor, whose sessions would otherwise load Seq rows that miss p's
// last commit; readers do not wait.
func (e *Engine) drain(p *ingest.Pipeline) error {
	err := p.Close()
	st := p.Stats()
	e.pipeMu.Lock()
	defer e.pipeMu.Unlock()
	e.lastIngest = st
	addIngest(&e.ingestTotal, st)
	e.draining = nil
	e.drained.Broadcast()
	return err
}

// ingestCumulative sums the counters of all drained pipelines with the live
// (or draining) one, keeping the exported ingest counters monotone across
// restarts.
func (e *Engine) ingestCumulative() ingest.Stats {
	e.pipeMu.Lock()
	st := e.ingestTotal
	p := e.activeLocked()
	e.pipeMu.Unlock()
	if p != nil {
		live := p.Stats()
		addIngest(&st, live)
		st.Queued, st.Sessions = live.Queued, live.Sessions
	}
	return st
}

// addIngest adds the monotone counters of src to dst; Queued and Sessions
// are instantaneous and belong to the live pipeline.
func addIngest(dst *ingest.Stats, src ingest.Stats) {
	dst.Accepted += src.Accepted
	dst.Flushed += src.Flushed
	dst.Batches += src.Batches
	dst.Syncs += src.Syncs
	dst.Stalls += src.Stalls
	dst.Reextracted += src.Reextracted
}

// activeLocked is the pipeline whose counters are live: the open one, else
// the one draining (pipeMu held).
func (e *Engine) activeLocked() *ingest.Pipeline {
	if e.pipeline != nil {
		return e.pipeline
	}
	return e.draining
}

// liveIngest snapshots the active pipeline's counters, or zeros when no
// ingestion holds one.
func (e *Engine) liveIngest() ingest.Stats {
	e.pipeMu.Lock()
	p := e.activeLocked()
	e.pipeMu.Unlock()
	if p == nil {
		return ingest.Stats{}
	}
	return p.Stats()
}

// closePipeline force-drains the pipeline on engine Close, regardless of
// open appenders, after any drain already under way.
func (e *Engine) closePipeline() error {
	e.pipeMu.Lock()
	for e.draining != nil {
		e.drained.Wait()
	}
	p := e.pipeline
	e.pipeline, e.streams, e.draining = nil, 0, p
	e.pipeMu.Unlock()
	if p == nil {
		return nil
	}
	return e.drain(p)
}

// IngestInfo returns the ingestion-pipeline counters: live while ingestion
// holds the pipeline, the final snapshot after it last drained, nil before
// the first ingestion. Unlike Info it touches no tables.
func (e *Engine) IngestInfo() *IngestStats { return e.ingestStats() }

// ingestStats returns the live pipeline counters, or the snapshot of the
// last drained pipeline, or nil before the first ingestion.
func (e *Engine) ingestStats() *IngestStats {
	e.pipeMu.Lock()
	defer e.pipeMu.Unlock()
	if p := e.activeLocked(); p != nil {
		st := IngestStats(p.Stats())
		return &st
	}
	if e.lastIngest != (ingest.Stats{}) {
		st := IngestStats(e.lastIngest)
		return &st
	}
	return nil
}
