package seqlog

import (
	"context"
	"fmt"
	"sync/atomic"

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

// IngestStats are the counters of the ingestion pipeline.
type IngestStats = ingest.Stats

// Appender is one handle onto the engine's ingestion pipeline, which every
// Appender and every Ingest call share and which lives until Engine.Close.
// It remembers the last flush cycle holding its events, so its Flush and
// Close wait for those alone, never for another writer's. An Appender is
// safe for concurrent use, but events of one trace must be appended in
// timestamp order (across all its appenders) for the serial-equivalence
// guarantee.
type Appender struct {
	e      *Engine
	p      *ingest.Pipeline
	block  bool
	ticket atomic.Uint64 // the latest cycle holding this handle's events
	closed bool
}

// OpenStream returns a handle onto the engine's ingestion pipeline, starting
// the pipeline on the engine's first write. An acknowledged Flush is durable
// on disk-backed engines: each flush commits as one atomic WAL group per
// store.
func (e *Engine) OpenStream(opts StreamOptions) (*Appender, error) {
	p, err := e.writer()
	if err != nil {
		return nil, err
	}
	return &Appender{e: e, p: p, block: opts.Block}, nil
}

// writer returns the engine's pipeline, starting it on the first write. A
// pipeline a commit error failed refuses every append and is replaced here:
// its holders keep their handles and see the error, its counters are folded
// into the engine totals, and it is closed before its successor starts, whose
// sessions would otherwise load Seq rows that miss its last commit.
func (e *Engine) writer() (*ingest.Pipeline, error) {
	if err := e.readOnlyErr(); err != nil {
		return nil, err
	}
	e.pipeMu.Lock()
	defer e.pipeMu.Unlock()
	if p := e.pipeline; p != nil {
		if p.Err() == nil {
			return p, nil
		}
		p.Close()
		addIngest(&e.ingestTotal, p.Stats())
		// The failed commit may have carried the alphabet: send it again.
		e.mu.Lock()
		e.persistedActs = -1
		e.mu.Unlock()
	}
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
		BeforeCommit:  e.alphabetIfGrown,
		Metrics:       e.metrics,
	})
	if err != nil {
		return nil, err
	}
	e.pipeline = p
	return p, nil
}

// PartialOrder reports whether the engine keeps same-timestamp events
// concurrent, so a streaming client must keep each tie group in one Append.
func (e *Engine) PartialOrder() bool { return e.rule().PartialOrder }

// alphabetIfGrown returns the interned alphabet as a meta row when it grew
// since the last one handed over, and nil otherwise. It runs under e.mu, as
// the pipeline's BeforeCommit hook: the row commits in the flush's own
// crash-atomic group, so new activity names become durable in the same
// fsync as the events that introduced them, and a sharded backend makes
// store 0 durable before any other store commits.
func (e *Engine) alphabetIfGrown() map[string][]byte {
	n := e.alphabet.Len()
	if n == e.persistedActs {
		return nil
	}
	e.persistedActs = n
	return map[string][]byte{metaAlphabet: e.alphabetRow()}
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
	t, err := a.p.AppendCtx(ctx, a.e.intern(events), a.block)
	if err != nil {
		return err
	}
	// Concurrent Appends may return out of order; keep the latest ticket.
	for cur := a.ticket.Load(); uint64(t) > cur; cur = a.ticket.Load() {
		if a.ticket.CompareAndSwap(cur, uint64(t)) {
			break
		}
	}
	return nil
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
	return a.p.FlushTo(ctx, ingest.Ticket(a.ticket.Load()))
}

// Stats snapshots the shared pipeline counters.
func (a *Appender) Stats() IngestStats {
	return a.p.Stats()
}

// Close flushes what this appender admitted and retires the handle; the
// pipeline keeps running for the engine's other writers.
func (a *Appender) Close() error {
	if a.closed {
		return nil
	}
	err := a.Flush()
	a.closed = true
	if err != nil {
		return fmt.Errorf("seqlog: flushing ingestion stream: %w", err)
	}
	return nil
}

// addIngest adds the monotone counters of src to dst; Queued and Sessions
// are instantaneous and belong to the live pipeline.
func addIngest(dst *IngestStats, src IngestStats) {
	dst.Accepted += src.Accepted
	dst.Flushed += src.Flushed
	dst.Batches += src.Batches
	dst.Syncs += src.Syncs
	dst.Stalls += src.Stalls
	dst.Scanned += src.Scanned
	dst.Loaded += src.Loaded
}

// IngestInfo returns the ingestion-pipeline counters, nil before the
// engine's first write: the pipeline's own plus those of the failed ones it
// replaced, so they never fall. Unlike Info it touches no tables.
func (e *Engine) IngestInfo() *IngestStats {
	e.pipeMu.Lock()
	p, st := e.pipeline, e.ingestTotal
	e.pipeMu.Unlock()
	if p == nil {
		return nil
	}
	live := p.Stats()
	addIngest(&st, live)
	st.Queued, st.Sessions = live.Queued, live.Sessions
	return &st
}
