package ingest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"seqlog/internal/index"
	"seqlog/internal/kvstore"
	"seqlog/internal/model"
	"seqlog/internal/pairs"
	"seqlog/internal/storage"
)

// dumpTables renders the full semantic content of the index tables into a
// canonical string: Seq rows verbatim, Index entries sorted per pair (the
// append order of a posting list is nondeterministic even between two
// Builder runs), counts and the last completion for every indexed pair. Two stores
// are equivalent iff their dumps match. Accepting any Backend lets the
// sharded oracle tests compare a scatter-gathered view against the serial
// single-store build.
func dumpTables(t *testing.T, tb storage.Backend, period string) string {
	t.Helper()
	var lines []string

	err := tb.ScanSeq(context.Background(), func(id model.TraceID, evs []model.TraceEvent) error {
		lines = append(lines, fmt.Sprintf("seq %d %v", id, evs))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	acts := map[model.ActivityID]bool{}
	err = tb.ScanIndex(context.Background(), period, func(k model.PairKey, es []storage.IndexEntry) error {
		cp := append([]storage.IndexEntry(nil), es...)
		sort.Slice(cp, func(i, j int) bool {
			if cp[i].Trace != cp[j].Trace {
				return cp[i].Trace < cp[j].Trace
			}
			if cp[i].TsA != cp[j].TsA {
				return cp[i].TsA < cp[j].TsA
			}
			return cp[i].TsB < cp[j].TsB
		})
		lines = append(lines, fmt.Sprintf("idx %v %v", k, cp))
		lc, err := tb.GetLastCompletion(context.Background(), k)
		if err != nil {
			return err
		}
		lines = append(lines, fmt.Sprintf("lc %v %d", k, lc))
		acts[k.First()] = true
		acts[k.Second()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for a := range acts {
		c, err := tb.GetCounts(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("cnt %d %v", a, c))
		for x := range acts {
			e, ok, err := tb.GetPairCount(context.Background(), x, a)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("pair %d %d %v %v", x, a, ok, e))
		}
	}

	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// randomLog emits a multi-trace event stream. Per-trace timestamps are
// nondecreasing (the stream regime of the equivalence contract) and include
// ties, so the normalization path is exercised.
func randomLog(rng *rand.Rand, traces, events, alphabet int) []model.Event {
	var out []model.Event
	ts := int64(1)
	for len(out) < events {
		if rng.Intn(3) != 0 {
			ts++ // ~1/3 of events tie with the previous timestamp
		}
		out = append(out, model.Event{
			Trace:    model.TraceID(1 + rng.Intn(traces)),
			Activity: model.ActivityID(rng.Intn(alphabet)),
			TS:       model.Timestamp(ts),
		})
	}
	return out
}

// serialDump indexes the whole log with one serial Builder.Update and
// returns the canonical dump — the oracle every streaming run must match.
func serialDump(t *testing.T, events []model.Event, policy model.Policy, period string) string {
	t.Helper()
	return serialBuild(t, events, index.Options{Policy: policy, Period: period})
}

// serialBuild is serialDump for any Builder options (Method and Workers are
// fixed: every flavor and worker count builds the same tables).
func serialBuild(t *testing.T, events []model.Event, opts index.Options) string {
	t.Helper()
	tb := storage.NewTables(kvstore.NewMemStore())
	opts.Method, opts.Workers = pairs.Indexing, 2
	b, err := index.NewBuilder(tb, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Update(events); err != nil {
		t.Fatal(err)
	}
	return dumpTables(t, tb, opts.Period)
}

// orderModes are the pair semantics the equivalence oracles cover: SC,
// STNM, and STNM under partial order (same-timestamp events concurrent).
var orderModes = []struct {
	policy  model.Policy
	partial bool
}{{model.SC, false}, {model.STNM, false}, {model.STNM, true}}

// chunkEnd clamps a chunk end to the log and, under partial order, moves it
// past the tie group it would split: randomLog's timestamps are global, so
// this keeps every trace's tie group inside one Append, as the partial-order
// contract asks.
func chunkEnd(events []model.Event, hi int, partial bool) int {
	hi = min(hi, len(events))
	for partial && hi < len(events) && events[hi].TS == events[hi-1].TS {
		hi++
	}
	return hi
}

// TestStreamEqualsSerialBuilder is the pipeline's equivalence oracle: any
// chunking of the stream, any worker count, SC, STNM and partial order, tiny
// flush thresholds forcing many micro-batch cycles — the tables must come
// out equivalent to one serial batch update. The 40-activity leg makes most
// events new to their trace, so sessions pair them without extraction.
func TestStreamEqualsSerialBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, alphabet := range []int{4, 40} {
		for _, mode := range orderModes {
			for _, workers := range []int{1, 2, 4} {
				for iter := 0; iter < 4; iter++ {
					events := randomLog(rng, 1+rng.Intn(6), 150, alphabet)
					want := serialBuild(t, events, index.Options{Policy: mode.policy, PartialOrder: mode.partial})

					tb := storage.NewTables(kvstore.NewMemStore())
					p, err := New(tb, Options{
						Policy:        mode.policy,
						PartialOrder:  mode.partial,
						Workers:       workers,
						FlushEvents:   8,
						FlushInterval: time.Millisecond,
					})
					if err != nil {
						t.Fatal(err)
					}
					for lo := 0; lo < len(events); {
						hi := chunkEnd(events, lo+1+rng.Intn(12), mode.partial)
						if err := p.Append(events[lo:hi]); err != nil {
							t.Fatal(err)
						}
						lo = hi
					}
					if err := p.Close(); err != nil {
						t.Fatal(err)
					}

					if got := dumpTables(t, tb, ""); got != want {
						t.Fatalf("alphabet=%d policy=%v partial=%v workers=%d iter=%d: streamed tables diverge from serial build\ngot:\n%s\nwant:\n%s",
							alphabet, mode.policy, mode.partial, workers, iter, got, want)
					}

					st := p.Stats()
					if st.Flushed != int64(len(events)) || st.Queued != 0 {
						t.Fatalf("stats after close: %+v, want %d flushed, 0 queued", st, len(events))
					}
				}
			}
		}
	}
}

// TestPartialOrderReachBackFailsOnlyItsAppend: under partial order an Append
// reaching back into a trace — past a flushed event, or past one still
// buffered in the same cycle — is refused whole at admission, hands its
// credits back, and leaves the pipeline serving every other Append; the
// tables are then exactly the serial build of the accepted Appends.
func TestPartialOrderReachBackFailsOnlyItsAppend(t *testing.T) {
	tb := storage.NewTables(kvstore.NewMemStore())
	p, err := New(tb, Options{Policy: model.STNM, PartialOrder: true, Workers: 2, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ev := func(trace, act, ts int) model.Event {
		return model.Event{Trace: model.TraceID(trace), Activity: model.ActivityID(act), TS: model.Timestamp(ts)}
	}
	var accepted []model.Event
	appendOK := func(evs ...model.Event) {
		t.Helper()
		if err := p.Append(evs); err != nil {
			t.Fatalf("append %v: %v", evs, err)
		}
		accepted = append(accepted, evs...)
	}
	refused := func(evs ...model.Event) {
		t.Helper()
		before := p.Stats()
		if err := p.Append(evs); !errors.Is(err, pairs.ErrReachesBack) {
			t.Fatalf("append %v: %v, want ErrReachesBack", evs, err)
		}
		if st := p.Stats(); st.Accepted != before.Accepted || st.Queued != before.Queued {
			t.Fatalf("refused append left counters %+v (before %+v)", st, before)
		}
	}

	appendOK(ev(1, 0, 1), ev(1, 1, 5), ev(2, 0, 5))
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	refused(ev(3, 0, 1), ev(1, 2, 5))  // ties trace 1's flushed ts 5; trace 3 must not land either
	appendOK(ev(1, 2, 6), ev(1, 0, 6)) // one tie group, one Append
	refused(ev(1, 1, 6))               // same cycle, still buffered
	appendOK(ev(2, 1, 6), ev(3, 1, 2))
	if err := p.Close(); err != nil {
		t.Fatalf("close after refusals: %v", err)
	}
	want := serialBuild(t, accepted, index.Options{Policy: model.STNM, PartialOrder: true})
	if got := dumpTables(t, tb, ""); got != want {
		t.Fatalf("tables diverge from the serial build of the accepted appends\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestConcurrentProducers partitions the traces across goroutines that
// append concurrently (each preserving its own traces' order), under every
// order mode. Run under -race this is the pipeline's concurrency proof.
func TestConcurrentProducers(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	const producers = 4
	for _, mode := range orderModes {
		events := randomLog(rng, producers*3, 600, 5)
		want := serialBuild(t, events, index.Options{Policy: mode.policy, PartialOrder: mode.partial})

		// Partition by trace, preserving per-trace order.
		parts := make([][]model.Event, producers)
		for _, ev := range events {
			pi := int(ev.Trace) % producers
			parts[pi] = append(parts[pi], ev)
		}

		tb := storage.NewTables(kvstore.NewMemStore())
		p, err := New(tb, Options{
			Policy:        mode.policy,
			PartialOrder:  mode.partial,
			Workers:       4,
			FlushEvents:   16,
			FlushInterval: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for pi := 0; pi < producers; pi++ {
			wg.Add(1)
			go func(evs []model.Event) {
				defer wg.Done()
				prng := rand.New(rand.NewSource(int64(len(evs))))
				for lo := 0; lo < len(evs); {
					hi := chunkEnd(evs, lo+1+prng.Intn(9), mode.partial)
					if err := p.Append(evs[lo:hi]); err != nil {
						t.Error(err)
						return
					}
					lo = hi
				}
			}(parts[pi])
		}
		wg.Wait()
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if got := dumpTables(t, tb, ""); got != want {
			t.Fatalf("policy=%v partial=%v: concurrent producers diverge from serial build\ngot:\n%s\nwant:\n%s",
				mode.policy, mode.partial, got, want)
		}
	}
}

// tryAppend is a non-blocking Append: a full queue answers ErrOverloaded.
func tryAppend(p *Pipeline, evs []model.Event) error {
	_, err := p.AppendCtx(context.Background(), evs, false)
	return err
}

// lockedLocker hands the test a way to stall commits: while held, the
// flusher blocks inside its cycle and the queue fills up.
func TestBackpressureOverloaded(t *testing.T) {
	tb := storage.NewTables(kvstore.NewMemStore())
	var gate sync.Mutex
	p, err := New(tb, Options{
		Policy:        model.STNM,
		Workers:       1,
		FlushEvents:   4,
		QueueEvents:   8,
		FlushInterval: time.Hour, // only explicit kicks
		CommitLock:    &gate,
	})
	if err != nil {
		t.Fatal(err)
	}
	gate.Lock() // stall every commit

	ev := func(i int) model.Event {
		return model.Event{Trace: 1, Activity: model.ActivityID(i % 3), TS: model.Timestamp(i + 1)}
	}
	accepted := 0
	var lastErr error
	for i := 0; i < 100; i++ {
		if err := tryAppend(p, []model.Event{ev(i)}); err != nil {
			lastErr = err
			break
		}
		accepted++
	}
	if !errors.Is(lastErr, ErrOverloaded) {
		t.Fatalf("overfilling the queue returned %v, want ErrOverloaded", lastErr)
	}
	if st := p.Stats(); st.Stalls == 0 {
		t.Fatalf("no stall recorded: %+v", st)
	}

	gate.Unlock() // release the flusher
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Flushed != int64(accepted) {
		t.Fatalf("flushed %d of %d accepted events", st.Flushed, accepted)
	}
	if got, want := dumpTables(t, tb, ""), serialDump(t, func() []model.Event {
		evs := make([]model.Event, accepted)
		for i := range evs {
			evs[i] = ev(i)
		}
		return evs
	}(), model.STNM, ""); got != want {
		t.Fatal("accepted prefix not indexed equivalently")
	}
}

// TestBlockingAppendWaits: in blocking mode a full queue parks the producer
// until the flusher frees credits, instead of erroring. An oversize batch
// (larger than the whole queue) is admitted in one piece by overdrawing a
// fully-free pool — all-or-nothing admission — so the backpressure lands on
// the NEXT append, which must park until the stalled commit releases the
// overdrawn credits.
func TestBlockingAppendWaits(t *testing.T) {
	tb := storage.NewTables(kvstore.NewMemStore())
	var gate sync.Mutex
	p, err := New(tb, Options{
		Policy:        model.STNM,
		Workers:       1,
		FlushEvents:   4,
		QueueEvents:   8,
		FlushInterval: time.Millisecond,
		CommitLock:    &gate,
	})
	if err != nil {
		t.Fatal(err)
	}
	gate.Lock()
	evs := make([]model.Event, 40) // 5× the queue: oversize, overdraws whole
	for i := range evs {
		evs[i] = model.Event{Trace: 1, Activity: 0, TS: model.Timestamp(i + 1)}
	}
	if err := p.Append(evs); err != nil {
		t.Fatalf("oversize append onto a free pool: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		done <- p.Append([]model.Event{{Trace: 2, Activity: 0, TS: 1}})
	}()
	select {
	case err := <-done:
		t.Fatalf("append finished while commits were stalled: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	gate.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Flushed != 41 || st.Stalls == 0 {
		t.Fatalf("stats %+v, want 41 flushed and >0 stalls", st)
	}
}

func TestAppendAfterClose(t *testing.T) {
	tb := storage.NewTables(kvstore.NewMemStore())
	p, err := New(tb, Options{Policy: model.STNM})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	err = p.Append([]model.Event{{Trace: 1, Activity: 0, TS: 1}})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := p.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestRejectsBadPolicy(t *testing.T) {
	tb := storage.NewTables(kvstore.NewMemStore())
	if _, err := New(tb, Options{Policy: model.STAM}); err == nil {
		t.Fatal("STAM accepted")
	}
}

// TestStreamOnTopOfBatchPrefix: traces already indexed by the serial
// Builder continue over the stream — the session must resume from the
// stored prefix (boundary, extractor state, SC last event).
func TestStreamOnTopOfBatchPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, policy := range []model.Policy{model.SC, model.STNM} {
		events := randomLog(rng, 4, 120, 4)
		cut := len(events) / 2
		want := serialDump(t, events, policy, "")

		tb := storage.NewTables(kvstore.NewMemStore())
		b, err := index.NewBuilder(tb, index.Options{Policy: policy, Method: pairs.State, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Update(events[:cut]); err != nil {
			t.Fatal(err)
		}

		p, err := New(tb, Options{Policy: policy, Workers: 2, FlushEvents: 8, FlushInterval: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Append(events[cut:]); err != nil {
			t.Fatal(err)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if got := dumpTables(t, tb, ""); got != want {
			t.Fatalf("policy=%v: stream atop batch prefix diverges\ngot:\n%s\nwant:\n%s", policy, got, want)
		}
	}
}

// TestForgetDropsSessions: pruned traces release their resident state.
func TestForgetDropsSessions(t *testing.T) {
	tb := storage.NewTables(kvstore.NewMemStore())
	p, err := New(tb, Options{Policy: model.STNM, Workers: 2, FlushEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	var evs []model.Event
	for i := 0; i < 20; i++ {
		evs = append(evs, model.Event{Trace: model.TraceID(1 + i%4), Activity: model.ActivityID(i % 3), TS: model.Timestamp(i + 1)})
	}
	if err := p.Append(evs); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Sessions != 4 {
		t.Fatalf("sessions = %d, want 4", st.Sessions)
	}
	p.Forget([]model.TraceID{1, 2, 3, 4})
	total := 0
	for i := range p.shards {
		total += len(p.shards[i].sessions)
	}
	if total != 0 {
		t.Fatalf("%d sessions survive Forget", total)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEvictionReloadEqualsSerialBuilder is the eviction oracle: with a
// resident budget of a few events, every cycle evicts the sessions whose
// rows are written and a trace that comes back is reloaded from its Seq row,
// yet the tables stay those of one serial Builder.Update under SC, STNM and
// partial order; and under partial order no trace keeps an ordering
// boundary once its session is gone.
func TestEvictionReloadEqualsSerialBuilder(t *testing.T) {
	defer func(b int) { residentEvents = b }(residentEvents)
	residentEvents = 4
	rng := rand.New(rand.NewSource(73))
	for _, mode := range orderModes {
		for _, workers := range []int{1, 2} {
			for iter := 0; iter < 3; iter++ {
				events := randomLog(rng, 8+rng.Intn(8), 200, 6)
				want := serialBuild(t, events, index.Options{Policy: mode.policy, PartialOrder: mode.partial})
				tb := storage.NewTables(kvstore.NewMemStore())
				p, err := New(tb, Options{
					Policy:        mode.policy,
					PartialOrder:  mode.partial,
					Workers:       workers,
					FlushEvents:   8,
					FlushInterval: time.Millisecond,
				})
				if err != nil {
					t.Fatal(err)
				}
				for lo := 0; lo < len(events); {
					hi := chunkEnd(events, lo+1+rng.Intn(6), mode.partial)
					if err := p.Append(events[lo:hi]); err != nil {
						t.Fatal(err)
					}
					// Flushing most chunks on their own keeps each cycle to
					// a few traces, so the others' sessions are written and
					// can go.
					if rng.Intn(4) > 0 {
						if err := p.Flush(); err != nil {
							t.Fatal(err)
						}
					}
					lo = hi
				}
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}
				if got := dumpTables(t, tb, ""); got != want {
					t.Fatalf("policy=%v partial=%v workers=%d iter=%d: tables diverge from serial build under eviction\ngot:\n%s\nwant:\n%s",
						mode.policy, mode.partial, workers, iter, got, want)
				}
				st := p.Stats()
				if st.Loaded == 0 {
					t.Fatalf("policy=%v partial=%v workers=%d iter=%d: no session was evicted and reloaded: %+v", mode.policy, mode.partial, workers, iter, st)
				}
				if len(p.last) > int(st.Sessions) {
					t.Fatalf("%d partial-order boundaries outlive their %d sessions", len(p.last), st.Sessions)
				}
			}
		}
	}
}

// blockedSeq holds the second read of trace id's Seq row — the first is
// the partial-order admission check, the second the extraction that loads
// its session — until release is closed, and reports when it got there.
type blockedSeq struct {
	storage.Backend
	id               model.TraceID
	reads            int
	entered, release chan struct{}
}

func (b *blockedSeq) GetSeq(ctx context.Context, id model.TraceID) ([]model.TraceEvent, bool, error) {
	if id == b.id {
		if b.reads++; b.reads == 2 {
			close(b.entered)
			<-b.release
		}
	}
	return b.Backend.GetSeq(ctx, id)
}

// nthLockGate is a CommitLock whose nth Lock waits until release is closed.
type nthLockGate struct {
	n, calls int
	release  chan struct{}
}

func (g *nthLockGate) Lock() {
	if g.calls++; g.calls == g.n {
		<-g.release
	}
}
func (g *nthLockGate) Unlock() {}

// TestPartialOrderBoundaryKeptUntilWritten: under partial order a trace's
// ordering boundary is evicted with its session only once the cycle of its
// last Append is written. Here trace 1's session is evicted while its next
// Append waits in the inbox, and that cycle's commit is held back; had the
// boundary gone, a reaching-back Append would be checked against the Seq
// row alone and admitted.
func TestPartialOrderBoundaryKeptUntilWritten(t *testing.T) {
	defer func(b int) { residentEvents = b }(residentEvents)
	residentEvents = 0
	seq := &blockedSeq{Backend: storage.NewTables(kvstore.NewMemStore()), id: 2, entered: make(chan struct{}), release: make(chan struct{})}
	gate := &nthLockGate{n: 3, release: make(chan struct{})}
	p, err := New(seq, Options{Policy: model.STNM, PartialOrder: true, Workers: 1, FlushEvents: 1, FlushInterval: time.Hour, CommitLock: gate})
	if err != nil {
		t.Fatal(err)
	}
	ev := func(trace, act, ts int) model.Event {
		return model.Event{Trace: model.TraceID(trace), Activity: model.ActivityID(act), TS: model.Timestamp(ts)}
	}
	if err := p.Append([]model.Event{ev(1, 0, 1), ev(1, 1, 5)}); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil { // cycle 1 is written
		t.Fatal(err)
	}
	if err := p.Append([]model.Event{ev(2, 0, 1)}); err != nil { // cycle 2 loads trace 2
		t.Fatal(err)
	}
	<-seq.entered
	if err := p.Append([]model.Event{ev(1, 2, 10)}); err != nil { // waits for cycle 3
		t.Fatal(err)
	}
	close(seq.release) // cycle 2 evicts trace 1's session; cycle 3's commit waits
	for extracted := false; !extracted; {
		p.mu.Lock()
		extracted = p.buffered == 0
		p.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	if err := p.Append([]model.Event{ev(1, 0, 7)}); !errors.Is(err, pairs.ErrReachesBack) {
		t.Errorf("append reaching back behind an unwritten cycle: %v, want ErrReachesBack", err)
	}
	close(gate.release)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Loaded == 0 {
		t.Fatalf("trace 1's session was never evicted and reloaded: %+v", st)
	}
}

// TestIdlePipelineNoWakeups: the coordinator arms its age timer only while
// events are buffered, so a pipeline that holds none sleeps — before its
// first Append and again after its last flush.
func TestIdlePipelineNoWakeups(t *testing.T) {
	const interval = 2 * time.Millisecond
	p, err := New(storage.NewTables(kvstore.NewMemStore()), Options{Policy: model.STNM, Workers: 1, FlushInterval: interval})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	time.Sleep(10 * interval)
	if n := p.wakeups.Load(); n != 0 {
		t.Fatalf("idle pipeline woke %d times over 10 flush intervals", n)
	}
	if err := p.Append([]model.Event{{Trace: 1, Activity: 0, TS: 1}, {Trace: 1, Activity: 1, TS: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * interval) // the flush's last kick may still be on its way
	n := p.wakeups.Load()
	time.Sleep(10 * interval)
	if m := p.wakeups.Load(); m != n {
		t.Fatalf("pipeline woke %d times over 10 flush intervals after its last flush", m-n)
	}
}

// commitGate is a CommitLock that holds the committer at its first commit
// until released, and reports when the committer got there.
type commitGate struct {
	arrived, release chan struct{}
	once             sync.Once
}

func (g *commitGate) Lock()   { g.once.Do(func() { close(g.arrived); <-g.release }) }
func (g *commitGate) Unlock() {}

// TestForgetKeepsSessionOfUnwrittenCycle: Forget racing a cycle whose rows
// are not written yet must not drop the trace's session — a reload from
// the Seq table would miss that cycle's events and their pairs.
func TestForgetKeepsSessionOfUnwrittenCycle(t *testing.T) {
	events := []model.Event{{Trace: 1, Activity: 1, TS: 1}, {Trace: 1, Activity: 2, TS: 2}}
	gate := &commitGate{arrived: make(chan struct{}), release: make(chan struct{})}
	tb := storage.NewTables(kvstore.NewMemStore())
	p, err := New(tb, Options{Policy: model.STNM, Workers: 1, FlushEvents: 1, CommitLock: gate})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Append(events[:1]); err != nil {
		t.Fatal(err)
	}
	<-gate.arrived // cycle 1 is extracted; its rows are not written
	p.Forget([]model.TraceID{1})
	if err := p.Append(events[1:]); err != nil {
		t.Fatal(err)
	}
	for extracted := false; !extracted; {
		p.mu.Lock()
		extracted = p.buffered == 0
		p.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	close(gate.release)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := dumpTables(t, tb, ""), serialDump(t, events, model.STNM, ""); got != want {
		t.Fatalf("stream with a racing Forget diverges from serial build\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// writeLog wraps a store and counts, per table, the Put and Append calls.
type writeLog struct {
	kvstore.Store
	mu     sync.Mutex
	writes map[string]int
}

func newWriteLog() *writeLog {
	return &writeLog{Store: kvstore.NewMemStore(), writes: map[string]int{}}
}

func (s *writeLog) Put(table, key string, value []byte) error {
	s.mu.Lock()
	s.writes[table]++
	s.mu.Unlock()
	return s.Store.Put(table, key, value)
}

func (s *writeLog) Append(table, key string, value []byte) error {
	s.mu.Lock()
	s.writes[table]++
	s.mu.Unlock()
	return s.Store.Append(table, key, value)
}

// TestStreamNoReverseCountWrites: a flush writes Seq, Index and Count rows,
// and nothing to the "rcount" table older builds kept.
func TestStreamNoReverseCountWrites(t *testing.T) {
	store := newWriteLog()
	p, err := New(storage.NewTables(store), Options{Policy: model.STNM, Workers: 2, FlushEvents: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Append(randomLog(rand.New(rand.NewSource(26)), 12, 400, 5)); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if store.writes["rcount"] != 0 || store.writes["count"] == 0 {
		t.Fatalf("writes per table = %v; want count rows and no rcount rows", store.writes)
	}
}

// TestStreamLastCheckedRowStaysScalar: a flush cycle writes no lastchecked
// row at all — a pair's last completion is read from its postings — however
// many traces ever held the pair.
func TestStreamLastCheckedRowStaysScalar(t *testing.T) {
	store := newWriteLog()
	tb := storage.NewTables(store)
	p, err := New(tb, Options{Policy: model.STNM, Workers: 2, FlushEvents: 8})
	if err != nil {
		t.Fatal(err)
	}
	for id := model.TraceID(1); id <= 200; id++ {
		ts := model.Timestamp(id)
		if err := p.Append([]model.Event{{Trace: id, Activity: 1, TS: ts}, {Trace: id, Activity: 2, TS: ts + 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if puts := store.writes["lastchecked"]; puts != 0 || store.writes["index"] < 2 {
		t.Fatalf("writes per table = %v; want several index appends and 0 lastchecked puts", store.writes)
	}
	if lc, err := tb.GetLastCompletion(context.Background(), model.NewPairKey(1, 2)); lc != 201 || err != nil {
		t.Fatalf("LastCompletion(1,2) = %d, %v; want 201", lc, err)
	}
}
