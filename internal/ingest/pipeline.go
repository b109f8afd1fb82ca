// Package ingest is the write path of the reproduction: a concurrent
// pipeline that accepts events continuously and maintains the pair index
// incrementally. A batch update (§3.1.3) is an Append followed by a flush
// of the cycle that holds it.
//
// Architecture (see DESIGN.md "Ingestion pipeline"):
//
//   - Append shards incoming events by trace id onto N affinity shards.
//     A trace always lands on the same shard, so per-trace arrival order —
//     the only order the index semantics need — survives sharding. One
//     Append never straddles two flush cycles.
//   - Each shard keeps resident sessions: the events of a live trace,
//     loaded from its Seq row when the trace first reaches the pipeline. A
//     flush extends each touched trace by the same per-trace rule the batch
//     Builder applies (pairs.Rule), so both write the same rows; a session
//     pairs each new event by reading back to its activity's previous
//     occurrence, or, for an activity new to the trace, its tally.
//     Past residentEvents stored events the least recently fed sessions are
//     evicted, and a trace that comes back is loaded again.
//   - The pipeline lives as long as its engine. An Append returns a Ticket,
//     the cycle holding its events, and FlushTo waits for that cycle alone.
//   - The coordinator goroutine swaps the shard inboxes when a flush
//     trigger fires (size or age), extracts deltas on all shards in
//     parallel, and partitions them per independent STORE of the backend
//     (the cross-shard reducer). The committer goroutine writes each store's
//     partition concurrently — one flusher and one WAL group per store —
//     and seals the groups without waiting for their fsyncs; the acker
//     releases credits only once every store reports its group durable.
//     Extraction of cycle N+1 therefore proceeds while cycle N is inside
//     fsync (double buffering), and consecutive groups on one store share
//     fsyncs (kvstore's leader/follower coalescing). An acknowledged flush
//     still means "fsynced on every store it touched", matching the serial
//     path.
//   - A bounded credit pool applies backpressure: Append either blocks or
//     fails fast with ErrOverloaded when the queue is full. Admission is
//     all-or-nothing per batch — a batch larger than the queue reserves the
//     whole pool and overdraws it rather than being admitted in chunks.
//
// Equivalence contract, enforced by the oracle tests: when each trace's
// events are appended in timestamp order (any interleaving across traces,
// any chunking; under partial order, no tie group split across Appends),
// the resulting tables are equivalent to a single serial
// index.Builder.Update of the whole log — identical Seq and Count rows, and
// an Index holding exactly the same entries (append order within a posting
// list may differ, as it already does between two Builder runs), so every
// pair's last completion, derived from the Index, is the same too. Neither
// writes the LastChecked table; only DropPeriod does.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"seqlog/internal/kvstore"
	"seqlog/internal/metrics"
	"seqlog/internal/model"
	"seqlog/internal/pairs"
	"seqlog/internal/parallel"
	"seqlog/internal/storage"
)

// ErrOverloaded is returned by non-blocking Append when the input queue
// cannot take the batch. The caller should retry later; nothing of the
// batch was enqueued (all-or-nothing admission).
var ErrOverloaded = errors.New("ingest: pipeline overloaded, retry later")

// ErrClosed is returned by operations on a closed pipeline.
var ErrClosed = errors.New("ingest: pipeline is closed")

// inflight is how many flush cycles may be past extraction at once: the
// coordinator extracts and the committer writes cycle N+1 while cycle N's
// groups are inside fsync, and back-to-back cycles on one store coalesce
// their fsyncs.
const inflight = 2

// Options configures a Pipeline.
type Options struct {
	// Policy is SC or STNM (STAM is not indexable and is rejected).
	Policy model.Policy

	// PartialOrder treats same-timestamp events of a trace as concurrent
	// (STNM only). Each Append must then extend each of its traces strictly
	// after the events already appended or stored, so a tie group arrives in
	// one Append; an Append that reaches back is refused whole (see
	// checkOrder) and the pipeline carries on.
	PartialOrder bool

	// Period is the index partition new entries go to (see SetPeriod).
	Period string

	// Workers is the shard / extraction-parallelism count.
	// Defaults to GOMAXPROCS.
	Workers int

	// FlushEvents triggers a flush once at least this many events are
	// buffered. Default 1024.
	FlushEvents int

	// FlushInterval bounds how long a buffered event waits before being
	// flushed. Default 50ms.
	FlushInterval time.Duration

	// QueueEvents bounds the input queue. Admission beyond it blocks or
	// fails with ErrOverloaded. Raised to 2×FlushEvents if smaller, so
	// backpressure can never deadlock the flush trigger. Default
	// 4×FlushEvents.
	QueueEvents int

	// CommitLock, when set, is held around every table commit, so an
	// embedding engine can serialize flushes against its readers.
	CommitLock sync.Locker

	// BeforeCommit, when set, runs inside the commit (under CommitLock and
	// inside every open batch group, before the groups seal). The engine
	// uses it to persist alphabet growth in the same crash-atomic unit as
	// the events that introduced the new activities; it reports whether it
	// wrote, because growth forces store 0's group durable before any other
	// store's group may seal (the meta-freshness recovery invariant).
	BeforeCommit func() (bool, error)

	// Metrics, when set, receives the pipeline telemetry: the
	// seqlog_ingest_flush_seconds histogram observing each committed flush
	// cycle (swap + extract + commit + fsync), the
	// seqlog_ingest_commit_wait_seconds histogram observing how long
	// extraction blocked handing a cycle to the committer (zero when the
	// write path keeps up — the "extraction stalled behind fsync" signal),
	// and per-store seqlog_ingest_shard_commit_seconds /
	// seqlog_ingest_shard_flushes_total series. The counters of Stats are
	// exposed by the embedding engine instead, so they stay monotone when
	// it replaces a failed pipeline.
	Metrics *metrics.Registry
}

// Stats is a snapshot of the pipeline counters.
type Stats struct {
	Queued   int64 `json:"queued"`             // events buffered right now
	Accepted int64 `json:"accepted"`           // events admitted in total
	Flushed  int64 `json:"flushed"`            // events committed to tables
	Batches  int64 `json:"batches"`            // committed flush cycles
	Syncs    int64 `json:"syncs"`              // cycles sealed by a group commit (an fsync on durable stores)
	Stalls   int64 `json:"stalls"`             // Appends that blocked or were refused
	Sessions int64 `json:"sessions,omitempty"` // resident trace sessions
	// Scanned counts the events the pair rule read, summed over cycles:
	// each new event's gap back to its activity's previous occurrence, or
	// the first occurrences an activity new to its trace pairs with.
	Scanned int64 `json:"scanned"`
	// Loaded counts the stored Seq events read into sessions.
	Loaded int64 `json:"loaded"`
}

// Ticket names the flush cycle that holds an Append's events.
type Ticket uint64

// residentBudget is how many stored events one pipeline's sessions hold
// before the least recently fed are evicted: about 9-11 MiB at the 33-42
// bytes per event measured on bpi_2017 and max_5000 (DESIGN §7).
const residentBudget = 1 << 18

// residentEvents is the budget New reads; tests shrink it.
var residentEvents = residentBudget

// storeWriter is the commit seam of one independent store of the backend:
// its crash-atomic group writer and its per-shard flush telemetry. Rows are
// written through the top-level Backend — the partitioning guarantees every
// row of partition i routes to store i, so the ordinary write methods land
// inside store i's open group.
type storeWriter struct {
	batch   kvstore.BatchWriter
	commitH *metrics.Histogram // durability wait per flushed group
	flushes *metrics.Counter   // groups sealed on this store
}

// flushJob is one extracted cycle moving through the commit stages.
type flushJob struct {
	parts    []*shardDelta // per store, aligned with Pipeline.stores
	period   string        // the partition the cycle's entries go to
	total    int           // events in the cycle
	sessions int64         // resident sessions after extraction
	scanned  int64         // events the pair rule read
	loaded   int64         // stored events read into sessions
	start    time.Time     // cycle start (inbox swap)
	cycle    Ticket        // extraction cycle number
	waits    []kvstore.Durability
	syncs    int64
	err      error
}

// Pipeline is the ingestion subsystem. Append may be called from
// any number of goroutines; Flush, Close and Stats are also safe for
// concurrent use.
type Pipeline struct {
	tables storage.Backend
	opts   Options
	rule   pairs.Rule

	flushH      *metrics.Histogram // committed-flush latency; nil-safe
	commitWaitH *metrics.Histogram // extraction blocked on the commit handoff

	// stores/route are the per-store commit seam: one writer per
	// independent store, and the backend's routing functions for
	// partitioning deltas onto them (route is unused with one store).
	stores []storeWriter
	route  storage.ShardedCommits

	shards []ingestShard
	budget int // resident stored events per shard
	// inboxMu makes each Append atomic with respect to the inbox swap:
	// enqueue holds it shared while it distributes a batch, extractCycle
	// exclusively while it swaps, so a batch never straddles two cycles.
	// The swap advances cycles and reads period under it too.
	inboxMu sync.RWMutex
	cycles  Ticket        // extraction cycles so far
	tail    atomic.Uint64 // the latest ticket handed out
	period  string

	// last holds, under partial order only, each trace's latest appended
	// timestamp and its ticket (checkOrder), evicted with the session.
	orderMu sync.Mutex
	last    map[model.TraceID]lastAppend

	mu        sync.Mutex
	cond      *sync.Cond
	free      int    // admission credits left: QueueEvents less the events not yet durable
	reserving int    // oversize admissions waiting to reserve the whole pool
	buffered  int64  // events admitted, not yet extracted
	acked     Ticket // last cycle acknowledged durable
	closed    bool
	failed    error // first commit error; poisons the pipeline
	stats     Stats

	kick    chan struct{}  // flush what is buffered now
	arm     chan struct{}  // the first buffered event: start the age timer
	jobs    chan *flushJob // coordinator -> committer, unbuffered
	acks    chan *flushJob // committer -> acker, cap inflight-1
	ackDone chan struct{}
	done    chan struct{}

	// spuriousWakes counts timer ticks that arrive sooner after the last
	// re-arm than the flush interval allows. With a fresh timer per arming
	// this is impossible — a tick always follows a full interval — so the
	// regression test asserts it stays exactly zero under kick-heavy load.
	// (A mishandled timer.Reset used to leave the expiry of a raced kick in
	// the channel: the coordinator woke again immediately and flushed a
	// premature, often empty, tiny cycle.)
	spuriousWakes atomic.Int64
	wakeups       atomic.Int64 // coordinator wakes: an idle pipeline has none

	cycleMu sync.Mutex    // serializes extraction cycles with Forget
	written atomic.Uint64 // last cycle whose rows the committer has written
}

type lastAppend struct {
	ts     model.Timestamp
	ticket Ticket
}

// session is the resident state of one live trace: its events so far — the
// stored Seq prefix, read when the trace reaches the pipeline (again after an
// eviction), plus everything extracted since. Every flush that touches the trace
// extends them by pairs.Rule, exactly as one Builder.Update over the same
// prefix would; the tally (each activity's first occurrence and parity) lets
// the rule pair an activity new to the trace without reading the trace.
type session struct {
	id     model.TraceID
	events []model.TraceEvent
	tally  pairs.Tally // of events
	cycle  Ticket      // extraction cycle that last fed the session
	prev   *session    // the shard's sessions, least recently fed first
	next   *session
}

// ingestShard owns the inbox and the resident sessions of the traces
// assigned to it. The inbox is touched by producers under mu; sessions are
// touched only by the coordinator's extraction pass, which is serialized
// under cycleMu.
type ingestShard struct {
	mu       sync.Mutex
	inbox    []model.Event
	sessions map[model.TraceID]*session
	lru      session // sentinel: lru.next is the least recently fed session
	resident int     // stored events the sessions hold
}

// fed moves s to the most recently fed end of the shard's list.
func (sh *ingestShard) fed(s *session) {
	if s.next != nil {
		s.prev.next, s.next.prev = s.next, s.prev
	}
	s.prev, s.next = sh.lru.prev, &sh.lru
	s.prev.next, sh.lru.prev = s, s
}

func (sh *ingestShard) drop(s *session) {
	s.prev.next, s.next.prev = s.next, s.prev
	delete(sh.sessions, s.id)
	sh.resident -= len(s.events)
}

// evict drops the least recently fed sessions while the shard holds more
// than budget stored events, and returns their ids. It stops at a session
// whose last cycle is not written: reloaded from the Seq row, it would miss
// that cycle's events.
func (sh *ingestShard) evict(budget int, written Ticket) (ids []model.TraceID) {
	for s := sh.lru.next; sh.resident > budget && s != &sh.lru && s.cycle <= written; s = sh.lru.next {
		sh.drop(s)
		ids = append(ids, s.id)
	}
	return ids
}

// New returns a running pipeline writing through tables.
func New(tables storage.Backend, opts Options) (*Pipeline, error) {
	rule := pairs.Rule{Policy: opts.Policy, PartialOrder: opts.PartialOrder}
	if err := rule.Validate(); err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.FlushEvents <= 0 {
		opts.FlushEvents = 1024
	}
	if opts.FlushInterval <= 0 {
		opts.FlushInterval = 50 * time.Millisecond
	}
	if opts.QueueEvents <= 0 {
		opts.QueueEvents = 4 * opts.FlushEvents
	}
	if opts.QueueEvents < 2*opts.FlushEvents {
		opts.QueueEvents = 2 * opts.FlushEvents
	}
	p := &Pipeline{
		tables:  tables,
		opts:    opts,
		rule:    rule,
		shards:  make([]ingestShard, opts.Workers),
		budget:  residentEvents / opts.Workers,
		period:  opts.Period,
		free:    opts.QueueEvents,
		kick:    make(chan struct{}, 1),
		arm:     make(chan struct{}, 1),
		jobs:    make(chan *flushJob),
		acks:    make(chan *flushJob, inflight-1),
		ackDone: make(chan struct{}),
		done:    make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	if opts.PartialOrder {
		p.last = make(map[model.TraceID]lastAppend)
	}
	p.flushH = opts.Metrics.Histogram("seqlog_ingest_flush_seconds")
	p.commitWaitH = opts.Metrics.Histogram("seqlog_ingest_commit_wait_seconds")
	if sc, ok := tables.(storage.ShardedCommits); ok {
		p.route = sc
		p.stores = make([]storeWriter, tables.NumShards())
		for i := range p.stores {
			p.stores[i].batch = sc.ShardBatch(i)
		}
	} else {
		// A backend without the per-store seam commits through its fan-out
		// Batch() writer as one unit (still pipelined when the writer can
		// seal).
		p.stores = []storeWriter{{batch: tables.Batch()}}
	}
	for i := range p.stores {
		l := metrics.Label{Key: "shard", Value: fmt.Sprintf("%d", i)}
		p.stores[i].commitH = opts.Metrics.Histogram("seqlog_ingest_shard_commit_seconds", l)
		p.stores[i].flushes = opts.Metrics.Counter("seqlog_ingest_shard_flushes_total", l)
	}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.sessions = make(map[model.TraceID]*session)
		sh.lru.prev, sh.lru.next = &sh.lru, &sh.lru
	}
	go p.committer()
	go p.acker()
	go p.run()
	return p, nil
}

// shardFor maps a trace onto its affinity shard (Fibonacci mix, as the
// Builder does for pair keys).
func (p *Pipeline) shardFor(id model.TraceID) int {
	return int((uint64(id) * 0x9E3779B97F4A7C15) >> 32 % uint64(len(p.shards)))
}

// Append admits a batch of events into the pipeline, waiting for queue
// space. Admission is all-or-nothing per batch (see AppendCtx). Events of
// one trace must be appended in timestamp order for the Builder-equivalence
// contract to hold; out-of-order events are still accepted and normalized
// forward, exactly as the serial Builder would.
func (p *Pipeline) Append(events []model.Event) error {
	_, err := p.AppendCtx(context.Background(), events, true)
	return err
}

// AppendCtx is Append with a cancellable admission wait and a choice of
// backpressure: with block a full queue parks the caller until credits come
// home (or ctx is done, returning ctx.Err()); without it a full queue
// refuses the whole batch with ErrOverloaded. Either way a refused batch
// admitted nothing — cancellation cannot tear a batch — and a batch larger
// than the queue itself waits for the pool to drain completely and then
// overdraws it, so even oversize batches are admitted in one piece. Under
// partial order a batch reaching back into one of its traces is refused
// whole with an error wrapping pairs.ErrReachesBack.
func (p *Pipeline) AppendCtx(ctx context.Context, events []model.Event, block bool) (Ticket, error) {
	if len(events) == 0 {
		return 0, nil
	}
	if err := p.admit(ctx, len(events), block); err != nil {
		return 0, err
	}
	if p.last == nil {
		return p.enqueue(events), nil
	}
	p.orderMu.Lock()
	defer p.orderMu.Unlock()
	next, err := p.checkOrder(ctx, events)
	if err != nil {
		n := int64(len(events)) // hand the credits back: nothing was admitted
		p.mu.Lock()
		p.free += len(events)
		p.buffered, p.stats.Accepted = p.buffered-n, p.stats.Accepted-n
		p.cond.Broadcast()
		p.mu.Unlock()
		return 0, err
	}
	t := p.enqueue(events)
	for id, ts := range next {
		p.last[id] = lastAppend{ts: ts, ticket: t}
	}
	return t, nil
}

// checkOrder holds a partial-order Append to what one Builder.Update
// accepts: each of its traces must start strictly after every timestamp
// already appended or stored for it, since a tie group split across two
// flushes would hide its completions behind the Seq boundary. Checked at
// admission, a reaching-back Append fails alone, whatever flush cycle it
// would have joined. The caller holds orderMu until the events are enqueued,
// so admission order is extraction order, and records the returned latest
// timestamps once it has the batch's ticket.
func (p *Pipeline) checkOrder(ctx context.Context, events []model.Event) (map[model.TraceID]model.Timestamp, error) {
	held := make(map[model.TraceID]model.Timestamp) // each trace's latest ts before the batch
	next := make(map[model.TraceID]model.Timestamp) // and once it is admitted
	for _, ev := range events {
		last, ok := held[ev.Trace]
		if !ok {
			if la, ok := p.last[ev.Trace]; ok {
				last = la.ts
			} else {
				seq, _, err := p.tables.GetSeq(ctx, ev.Trace)
				if err != nil {
					return nil, err
				}
				last = -1 << 62
				if len(seq) > 0 {
					last = seq[len(seq)-1].TS
				}
			}
			held[ev.Trace] = last
		}
		if ev.TS <= last {
			return nil, fmt.Errorf("ingest: trace %d: %w to ts %d (holds up to %d)", ev.Trace, pairs.ErrReachesBack, ev.TS, last)
		}
		if cur, ok := next[ev.Trace]; !ok || ev.TS > cur {
			next[ev.Trace] = ev.TS
		}
	}
	return next, nil
}

// admit reserves n credits in one piece. A batch larger than the whole pool
// (oversize) registers as a reservation, waits until every credit is home,
// and then overdraws the pool — blocking even in non-blocking mode, since
// refusing it could never succeed and admitting it chunk-wise would tear the
// batch on a mid-batch failure, which is exactly what the ErrOverloaded
// contract rules out. Pending reservations pause ordinary blocking admits so
// an oversize batch cannot be starved by a steady trickle of small ones.
func (p *Pipeline) admit(ctx context.Context, n int, block bool) error {
	oversize := n > p.opts.QueueEvents
	done := ctx.Done()
	p.mu.Lock()
	defer p.mu.Unlock()
	if oversize {
		p.reserving++
		defer func() {
			p.reserving--
			p.cond.Broadcast()
		}()
	}
	stalled := false
	var stopWatch func() bool
	for {
		if done != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if p.closed {
			return ErrClosed
		}
		if p.failed != nil {
			return p.failed
		}
		ok := p.free >= n
		if oversize {
			ok = p.free >= p.opts.QueueEvents
		} else if p.reserving > 0 {
			ok = false
		}
		if ok {
			if p.buffered == 0 {
				p.armTimer()
			}
			p.free -= n
			p.buffered += int64(n)
			p.stats.Accepted += int64(n)
			if stalled {
				p.stats.Stalls++
			}
			return nil
		}
		if !block && !oversize {
			p.stats.Stalls++
			p.kickFlusher()
			return ErrOverloaded
		}
		if done != nil && stopWatch == nil {
			// Registered lazily, only once a wait is actually needed: the
			// watcher wakes the cond so a canceled waiter re-checks ctx
			// instead of sleeping out the backpressure stall.
			stopWatch = context.AfterFunc(ctx, func() {
				p.mu.Lock()
				p.cond.Broadcast()
				p.mu.Unlock()
			})
			defer stopWatch()
		}
		stalled = true
		p.kickFlusher()
		p.cond.Wait()
	}
}

// enqueue distributes admitted events onto their affinity shards, kicks the
// coordinator when the size trigger is reached, and returns the ticket of
// the cycle that will extract them.
func (p *Pipeline) enqueue(events []model.Event) Ticket {
	// Group by shard first so each shard lock is taken once per call.
	byShard := make(map[int][]model.Event)
	for _, ev := range events {
		si := p.shardFor(ev.Trace)
		byShard[si] = append(byShard[si], ev)
	}
	p.inboxMu.RLock()
	t := p.cycles + 1
	p.tail.Store(uint64(t)) // every holder of the shared lock stores the same t
	for si, evs := range byShard {
		sh := &p.shards[si]
		sh.mu.Lock()
		sh.inbox = append(sh.inbox, evs...)
		sh.mu.Unlock()
	}
	p.inboxMu.RUnlock()
	p.mu.Lock()
	if p.buffered >= int64(p.opts.FlushEvents) {
		p.kickFlusher()
	}
	p.mu.Unlock()
	return t
}

// kickFlusher nudges the coordinator without blocking. Callers hold p.mu or
// don't — the channel is the synchronization.
func (p *Pipeline) kickFlusher() {
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// armTimer tells the coordinator to start its age timer. Callers hold p.mu.
func (p *Pipeline) armTimer() {
	select {
	case p.arm <- struct{}{}:
	default:
	}
}

// Flush commits everything enqueued before the call and blocks until it is
// durable (or until the pipeline fails): a barrier over every writer.
func (p *Pipeline) Flush() error {
	return p.FlushTo(context.Background(), Ticket(p.tail.Load()))
}

// FlushTo blocks until cycle t is durable, and with it every earlier cycle:
// the events of the Appends that returned t or less, and nothing admitted
// after them. It fails with the pipeline's error when a failure came first.
// When ctx is done the caller unblocks with ctx.Err(); the flush itself is
// unaffected — other producers may be relying on the commit.
func (p *Pipeline) FlushTo(ctx context.Context, t Ticket) error {
	done := ctx.Done()
	if done != nil {
		stop := context.AfterFunc(ctx, func() {
			p.mu.Lock()
			p.cond.Broadcast()
			p.mu.Unlock()
		})
		defer stop()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.acked < t && p.failed == nil {
		if done != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		p.kickFlusher()
		p.cond.Wait()
	}
	if p.acked >= t {
		return nil
	}
	return p.failed
}

// SetPeriod directs the entries of every cycle extracted after the call into
// period, events already buffered included; a caller that wants those in the
// earlier partition flushes first.
func (p *Pipeline) SetPeriod(period string) {
	p.inboxMu.Lock()
	p.period = period
	p.inboxMu.Unlock()
}

// Close drains the queue with a final commit and stops the pipeline. It is
// idempotent; the first error the pipeline hit (if any) is returned.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.kickFlusher()
	<-p.done
	return p.Err()
}

// fail records the first pipeline error and wakes every waiter.
func (p *Pipeline) fail(err error) {
	p.mu.Lock()
	if p.failed == nil {
		p.failed = err
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Err returns the error that failed the pipeline, nil while it is healthy.
func (p *Pipeline) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failed
}

// Stats returns a snapshot of the pipeline counters.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	st.Queued = int64(p.opts.QueueEvents - p.free)
	return st
}

// Forget drops the resident sessions (and partial-order boundaries) of
// pruned traces so their memory is reclaimed. The caller must have flushed
// (or not care about) pending events of those traces. A session fed by a
// cycle the committer has not written yet is kept: reloading it from the Seq
// table now would miss that cycle's events and extract their pairs twice.
func (p *Pipeline) Forget(ids []model.TraceID) {
	p.cycleMu.Lock()
	defer p.cycleMu.Unlock()
	written := Ticket(p.written.Load())
	for _, id := range ids {
		sh := &p.shards[p.shardFor(id)]
		if s := sh.sessions[id]; s != nil && s.cycle <= written {
			sh.drop(s)
		}
	}
	p.dropBoundaries(ids, math.MaxUint64)
}

// dropBoundaries forgets the partial-order boundaries of ids whose last
// Append is in cycle upTo or earlier; checkOrder then reads the Seq row.
func (p *Pipeline) dropBoundaries(ids []model.TraceID, upTo Ticket) {
	if p.last == nil {
		return
	}
	p.orderMu.Lock()
	for _, id := range ids {
		if la, ok := p.last[id]; ok && la.ticket <= upTo {
			delete(p.last, id)
		}
	}
	p.orderMu.Unlock()
}

// run is the coordinator: woken by size kicks and the age timer, it swaps
// and extracts pending inboxes into flush jobs and hands them downstream.
// Extraction is decoupled from durability — while a job's groups are inside
// fsync, the next cycle is already being extracted (double buffering); the
// handoff blocks only once inflight cycles are past extraction, and that
// blocked time is what seqlog_ingest_commit_wait_seconds measures. The age
// timer runs only while events are buffered, so an idle pipeline sleeps.
func (p *Pipeline) run() {
	defer close(p.done)
	var (
		timer *time.Timer
		tick  <-chan time.Time
		armed time.Time
	)
	stopTimer := func() {
		if timer != nil {
			timer.Stop()
			timer, tick = nil, nil
		}
	}
	defer stopTimer()
	for {
		flush := true
		select {
		case <-p.kick:
		case <-p.arm:
			flush = false
		case <-tick:
			if time.Since(armed) < p.opts.FlushInterval {
				// A fresh timer can only deliver a tick a full interval after
				// it was armed; an early one is a stale expiry of an earlier
				// arming (the premature-tiny-flush bug).
				p.spuriousWakes.Add(1)
			}
		}
		p.wakeups.Add(1)

		for flush {
			p.mu.Lock()
			runnable := p.buffered > 0 && p.failed == nil
			p.mu.Unlock()
			if !runnable {
				break
			}
			job, err := p.extractCycle()
			if err != nil {
				p.fail(err)
				break
			}
			if job == nil {
				// Credits are taken but the events have not reached their
				// shard inboxes yet (admit/enqueue race); the timer or the
				// enqueuer's own kick retries in a moment.
				break
			}
			wait := time.Now()
			p.jobs <- job
			p.commitWaitH.Observe(time.Since(wait))
		}

		p.mu.Lock()
		pending := p.buffered > 0 && p.failed == nil
		closed := p.closed
		p.mu.Unlock()
		// A flush re-arms the age timer with a fresh one while events are
		// buffered. After a kick-driven wake the old timer may have expired
		// concurrently, and under the module's pre-1.23 timer semantics Stop
		// can report "already fired" while that send is still in flight, so
		// no drain catches it: Reset would let the stale expiry wake the
		// next iteration at once and flush a premature tiny cycle.
		if flush || !pending {
			stopTimer()
		}
		if pending && timer == nil {
			armed = time.Now()
			timer = time.NewTimer(p.opts.FlushInterval)
			tick = timer.C
		}
		if !closed {
			continue
		}
		if pending {
			// Admitted events still racing onto the inboxes; spin until the
			// final extraction sweeps them.
			p.kickFlusher()
			continue
		}
		close(p.jobs)
		<-p.ackDone
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
		return
	}
}

// extractCycle swaps every shard's inbox, extracts the deltas in parallel
// and partitions them per store, returning the flush job (nil when the
// inboxes were empty). It holds cycleMu only for the extraction itself, so
// the previous cycle's commit and fsync overlap the next cycle's
// extraction. The session recount happens here, outside the producers'
// admission mutex.
func (p *Pipeline) extractCycle() (*flushJob, error) {
	p.cycleMu.Lock()
	defer p.cycleMu.Unlock()

	pend := make([][]model.Event, len(p.shards))
	total := 0
	p.inboxMu.Lock()
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		pend[i], sh.inbox = sh.inbox, nil
		sh.mu.Unlock()
		total += len(pend[i])
	}
	if total > 0 {
		p.cycles++
	}
	period := p.period
	p.inboxMu.Unlock()
	if total == 0 {
		return nil, nil
	}
	start := time.Now()

	written := Ticket(p.written.Load())
	deltas := make([]*shardDelta, len(p.shards))
	err := parallel.ForEach(len(p.shards), p.opts.Workers, func(i int) error {
		sh := &p.shards[i]
		if len(pend[i]) > 0 {
			var err error
			if deltas[i], err = p.extractShard(sh, pend[i]); err != nil {
				return err
			}
		}
		p.dropBoundaries(sh.evict(p.budget, written), written)
		return nil
	})
	if err != nil {
		return nil, err
	}

	job := &flushJob{period: period, total: total, start: start, cycle: p.cycles}
	for i, d := range deltas {
		job.sessions += int64(len(p.shards[i].sessions))
		if d != nil {
			job.scanned += int64(d.scanned)
			job.loaded += int64(d.loaded)
		}
	}
	job.parts = p.partitionDeltas(deltas)
	p.mu.Lock()
	p.buffered -= int64(total)
	p.mu.Unlock()
	return job, nil
}

// committer is the middle stage: one job at a time, it writes every store's
// partition in parallel and seals the groups, then hands the job to the
// acker without waiting for its fsync.
func (p *Pipeline) committer() {
	defer close(p.acks)
	for job := range p.jobs {
		p.mu.Lock()
		failed := p.failed
		p.mu.Unlock()
		if failed != nil {
			job.err = failed
		} else {
			job.err = p.commitJob(job)
		}
		p.written.Store(uint64(job.cycle))
		p.acks <- job
	}
}

// acker is the final stage: it waits for every store's fsync and releases
// the job's credits. Keeping it off the committer goroutine is what lets
// cycle N+1's table writes overlap cycle N's fsync.
func (p *Pipeline) acker() {
	defer close(p.ackDone)
	for job := range p.acks {
		if job.err == nil {
			job.err = p.waitJob(job)
		}
		p.finishJob(job)
	}
}

// waitJob blocks until every store the job touched reports its group
// durable, timing each store's wait into its per-shard histogram. Waits on
// different stores run concurrently — N stores, N overlapping fsyncs.
func (p *Pipeline) waitJob(job *flushJob) error {
	active := 0
	for _, w := range job.waits {
		if w != nil {
			active++
		}
	}
	if active == 0 {
		return nil
	}
	return parallel.ForEach(len(job.waits), active, func(i int) error {
		w := job.waits[i]
		if w == nil {
			return nil
		}
		start := time.Now()
		if err := w.Wait(); err != nil {
			return err
		}
		p.stores[i].commitH.Observe(time.Since(start))
		return nil
	})
}

// finishJob is the ack point: it releases the job's credits and publishes
// its counters. flushH is observed outside p.mu — the producers' admission
// mutex is held only for the counter updates themselves.
func (p *Pipeline) finishJob(job *flushJob) {
	if job.err == nil {
		p.flushH.Observe(time.Since(job.start))
	}
	p.mu.Lock()
	if job.err != nil {
		if p.failed == nil {
			p.failed = job.err
		}
	} else {
		p.acked = job.cycle
		p.free += job.total
		p.stats.Flushed += int64(job.total)
		p.stats.Batches++
		p.stats.Syncs += job.syncs
		p.stats.Sessions = job.sessions
		p.stats.Scanned += job.scanned
		p.stats.Loaded += job.loaded
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}
