package seqlog

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seqlog/internal/index"
	"seqlog/internal/kvstore"
	"seqlog/internal/storage"
)

func streamEvents() []Event {
	return shopEvents()
}

// builderEngine opens an in-memory engine whose tables index.Builder wrote,
// one serial Update per batch, in cfg's order mode. It is the reference the
// ingestion pipeline is held to, independent of it: Engine.Ingest itself
// runs the pipeline.
func builderEngine(t *testing.T, cfg Config, batches ...[]Event) *Engine {
	t.Helper()
	e := openMem(t, cfg)
	for _, batch := range batches {
		builderIngest(t, e, batch)
	}
	return e
}

// builderIngest indexes one batch into e's tables with index.Builder, into
// e's current partition.
func builderIngest(t *testing.T, e *Engine, batch []Event) {
	t.Helper()
	b, err := index.NewBuilder(e.tables, index.Options{
		Policy: e.rule().Policy, PartialOrder: e.rule().PartialOrder, Period: e.cfg.Period, Workers: e.cfg.Workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Update(e.intern(batch)); err != nil {
		t.Fatal(err)
	}
}

// TestStreamEqualsIngest: the streaming facade must build the same index
// serial batch updates build — detection results and stats agree.
func TestStreamEqualsIngest(t *testing.T) {
	serial := builderEngine(t, Config{}, streamEvents())

	streamed := openMem(t, Config{Workers: 3, FlushEvents: 4, FlushInterval: time.Millisecond})
	a, err := streamed.OpenStream(StreamOptions{Block: true})
	if err != nil {
		t.Fatal(err)
	}
	evs := streamEvents()
	for _, ev := range evs { // one event per append: maximal chunking stress
		if err := a.Append([]Event{ev}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Flushed != int64(len(evs)) || st.Queued != 0 || st.Batches == 0 {
		t.Fatalf("stream stats %+v", st)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	for _, pat := range [][]string{{"search", "view", "cart"}, {"search", "pay"}, {"view", "view"}} {
		want, err1 := serial.Detect(context.Background(), pat, DetectOptions{})
		got, err2 := streamed.Detect(context.Background(), pat, DetectOptions{})
		if err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("pattern %v: streamed %v (%v) vs serial %v (%v)", pat, got, err2, want, err1)
		}
	}
	ws, err1 := serial.Stats(context.Background(), []string{"search", "view"}, StatsOptions{})
	gs, err2 := streamed.Stats(context.Background(), []string{"search", "view"}, StatsOptions{})
	if err1 != nil || err2 != nil || !reflect.DeepEqual(gs, ws) {
		t.Fatalf("stats diverge: %+v vs %+v", gs, ws)
	}
}

// TestStreamDurableAckAndReopen: events acknowledged by Flush on a durable
// engine survive an abrupt reopen — including alphabet entries persisted by
// the BeforeCommit hook inside the same group commit.
func TestStreamDurableAckAndReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	e, err := Open(Config{Dir: dir, FlushEvents: 4, FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.OpenStream(StreamOptions{Block: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append(streamEvents()); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Syncs == 0 {
		t.Fatalf("durable flush did not sync: %+v", st)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ids, err := detectTraces(re, []string{"search", "view", "cart"})
	if err != nil || !reflect.DeepEqual(ids, []int64{1, 3}) {
		t.Fatalf("after reopen: traces = %v %v", ids, err)
	}
	if got := len(re.Activities()); got != 5 {
		t.Fatalf("alphabet lost across reopen: %d activities", got)
	}
}

// TestSerialIngestRoutesThroughOpenStream: while a stream is open, Ingest
// joins its pipeline (resident sessions would otherwise miss writes).
func TestSerialIngestRoutesThroughOpenStream(t *testing.T) {
	e := openMem(t, Config{FlushEvents: 4})
	a, err := e.OpenStream(StreamOptions{Block: true})
	if err != nil {
		t.Fatal(err)
	}
	evs := streamEvents()
	if err := a.Append(evs[:4]); err != nil {
		t.Fatal(err)
	}
	st, err := e.Ingest(evs[4:]) // serial API, stream open
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != len(evs)-4 {
		t.Fatalf("routed stats = %+v", st)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	serial := builderEngine(t, Config{}, evs)
	want, _ := serial.Detect(context.Background(), []string{"search", "pay"}, DetectOptions{})
	got, err := e.Detect(context.Background(), []string{"search", "pay"}, DetectOptions{})
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("mixed-path index diverges: %v vs %v (%v)", got, want, err)
	}
}

// TestIngestWhenStreamClosesUnderIt: Ingest racing the last appender's
// Close either joins the pipeline before its drain or starts a fresh one
// after it — never an error, and never a pair lost or indexed twice, even
// for a trace both sides extend. Run it under -race.
func TestIngestWhenStreamClosesUnderIt(t *testing.T) {
	evs := streamEvents() // evs[:6] holds trace 1 and half of trace 2
	want := builderEngine(t, Config{}, evs)
	for i := 0; i < 40; i++ {
		e := openMem(t, Config{})
		a, err := e.OpenStream(StreamOptions{Block: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Append(evs[:6]); err != nil {
			t.Fatal(err)
		}
		var (
			wg         sync.WaitGroup
			cerr, ierr error
			st         UpdateStats
		)
		wg.Add(2)
		go func() { defer wg.Done(); cerr = a.Close() }()
		go func() { defer wg.Done(); st, ierr = e.Ingest(evs[6:]) }()
		wg.Wait()
		if cerr != nil || ierr != nil || st != (UpdateStats{Traces: 2, Events: len(evs) - 6}) {
			t.Fatalf("round %d: Close = %v, Ingest = %+v, %v", i, cerr, st, ierr)
		}
		for _, pat := range [][]string{{"search", "view", "exit"}, {"search", "view"}, {"search", "pay"}} {
			w, err1 := want.Stats(context.Background(), pat, StatsOptions{})
			g, err2 := e.Stats(context.Background(), pat, StatsOptions{})
			if err1 != nil || err2 != nil || !reflect.DeepEqual(g, w) {
				t.Fatalf("round %d, pattern %v: %+v (%v), want %+v (%v)", i, pat, g, err2, w, err1)
			}
		}
		e.Close()
	}
}

// TestStreamInfoAndSharedPipeline: Info surfaces the counters of the one
// pipeline every appender shares. Closing an appender flushes its events
// and leaves the pipeline running, so after every Close the counters are
// still live and never fall.
func TestStreamInfoAndSharedPipeline(t *testing.T) {
	e := openMem(t, Config{FlushEvents: 4})
	if info, _ := e.Info(); info.Ingest != nil {
		t.Fatalf("ingest stats before any stream: %+v", info.Ingest)
	}
	a1, err := e.OpenStream(StreamOptions{Block: true})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := e.OpenStream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	evs := streamEvents()
	wg.Add(2)
	go func() { defer wg.Done(); _ = a1.Append(evs[:6]) }()
	go func() { defer wg.Done(); _ = a2.Append(evs[6:]) }()
	wg.Wait()

	var last IngestStats
	check := func(step string, flushed int) {
		t.Helper()
		info, err := e.Info()
		if err != nil || info.Ingest == nil {
			t.Fatalf("%s: info lacks live ingest stats: %+v %v", step, info.Ingest, err)
		}
		st := *info.Ingest
		if st.Flushed < int64(flushed) || st.Accepted < last.Accepted || st.Flushed < last.Flushed || st.Batches < last.Batches {
			t.Fatalf("%s: ingest stats %+v, want at least %d flushed and no counter below %+v", step, st, flushed, last)
		}
		last = st
	}
	if err := a1.Close(); err != nil {
		t.Fatal(err)
	}
	check("first close", 6)
	if err := a2.Close(); err != nil {
		t.Fatal(err)
	}
	check("second close", len(evs))
	if _, err := e.Ingest([]Event{{Trace: 9, Activity: "search", Time: 1}}); err != nil {
		t.Fatal(err)
	}
	check("ingest after every close", len(evs)+1)
	if st := e.IngestInfo(); st == nil || *st != last {
		t.Fatalf("IngestInfo %+v, Info().Ingest %+v", st, last)
	}
}

// slowTables makes every commit take a millisecond per trace it appends
// to, so a steady appender keeps the queue full.
type slowTables struct{ storage.Backend }

func (s slowTables) Commit(period string, d *storage.Delta) ([]kvstore.Durability, error) {
	time.Sleep(time.Duration(len(d.Seqs)) * time.Millisecond)
	return s.Backend.Commit(period, d)
}

// TestIngestReturnsBesideBusyAppender: Engine.Ingest waits for the flush
// cycle holding its own batch, not for the queue to empty, so it returns
// while another appender keeps the queue full and never flushes.
func TestIngestReturnsBesideBusyAppender(t *testing.T) {
	e := openMem(t, Config{FlushEvents: 8, IngestQueue: 32})
	e.tables = slowTables{e.tables}
	a, err := e.OpenStream(StreamOptions{Block: true})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	busy := make(chan error, 1)
	go func() {
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				busy <- nil
				return
			default:
			}
			evs := []Event{{Trace: 1000 + i, Activity: "x", Time: 1}, {Trace: 1000 + i, Activity: "y", Time: 2}}
			if err := a.Append(evs); err != nil {
				busy <- err
				return
			}
		}
	}()
	for st := e.IngestInfo(); st == nil || st.Batches < 2; st = e.IngestInfo() {
		time.Sleep(time.Millisecond)
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.Ingest(streamEvents())
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Error("Ingest did not return while another appender kept the queue full")
	}
	close(stop)
	if err := <-busy; err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if ids, err := detectTraces(e, []string{"search", "view", "cart"}); err != nil || !reflect.DeepEqual(ids, []int64{1, 3}) {
		t.Fatalf("search,view,cart traces = %v (%v), want [1 3]", ids, err)
	}
}

// TestRotateAndPruneWithStreamOpen: RotatePeriod and PruneTraces succeed
// while a stream is open. What the stream appended before the rotation
// lands in the old partition, what it appends after in the new one, and a
// pruned trace the stream extends afterwards starts afresh.
func TestRotateAndPruneWithStreamOpen(t *testing.T) {
	e := openMem(t, Config{FlushEvents: 1 << 10, FlushInterval: time.Hour})
	a, err := e.OpenStream(StreamOptions{Block: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Append([]Event{{Trace: 1, Activity: "a", Time: 1}, {Trace: 1, Activity: "b", Time: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := e.RotatePeriod("p2"); err != nil {
		t.Fatalf("rotate with a stream open: %v", err)
	}
	if err := a.Append([]Event{{Trace: 2, Activity: "c", Time: 3}, {Trace: 2, Activity: "d", Time: 4}}); err != nil {
		t.Fatal(err)
	}
	if err := e.PruneTraces([]int64{1}); err != nil {
		t.Fatalf("prune with a stream open: %v", err)
	}
	if err := a.Append([]Event{{Trace: 1, Activity: "e", Time: 5}}); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	info, err := e.Info()
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]int{"": 1, "p2": 1}; !reflect.DeepEqual(info.Partitions, want) {
		t.Fatalf("partitions = %v, want the (a,b) pair in the old one and (c,d) in p2", info.Partitions)
	}
	for _, pat := range [][]string{{"a", "b"}, {"c", "d"}} {
		if ids, err := detectTraces(e, pat); err != nil || len(ids) != 1 {
			t.Fatalf("%v traces = %v (%v)", pat, ids, err)
		}
	}
	if ids, err := detectTraces(e, []string{"b", "e"}); err != nil || len(ids) != 0 {
		t.Fatalf("pruned trace 1 paired across the prune: %v (%v)", ids, err)
	}
	if evs, _, err := e.TraceEvents(1); err != nil || len(evs) != 1 {
		t.Fatalf("trace 1 after prune = %v (%v), want only e", evs, err)
	}
}

// TestStreamPartialOrderEqualsIngest: a partial-order stream, fed one tie
// group per Append, builds the index one partial-order Ingest builds, which
// is the index one serial Builder update builds; and a stream Append
// reaching back into a flushed tie group fails alone, the way a
// reaching-back batch does.
func TestStreamPartialOrderEqualsIngest(t *testing.T) {
	evs := []Event{
		{Trace: 1, Activity: "login", Time: 10}, {Trace: 1, Activity: "sync", Time: 10},
		{Trace: 2, Activity: "login", Time: 10},
		{Trace: 2, Activity: "sync", Time: 15},
		{Trace: 1, Activity: "work", Time: 20}, {Trace: 2, Activity: "work", Time: 20},
		{Trace: 1, Activity: "login", Time: 30}, {Trace: 1, Activity: "work", Time: 30},
	}
	serial := builderEngine(t, Config{PartialOrder: true}, evs)
	batch := openMem(t, Config{PartialOrder: true})
	if _, err := batch.Ingest(evs); err != nil {
		t.Fatal(err)
	}
	streamed := openMem(t, Config{PartialOrder: true, Workers: 2, FlushEvents: 2, FlushInterval: time.Millisecond})
	a, err := streamed.OpenStream(StreamOptions{Block: true})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(evs); {
		hi := lo + 1
		for hi < len(evs) && evs[hi].Time == evs[lo].Time {
			hi++
		}
		if err := a.Append(evs[lo:hi]); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	for _, pat := range [][]string{{"login", "sync"}, {"login", "work"}, {"sync", "work"}, {"work", "login"}, {"login", "work", "login"}} {
		want, err0 := serial.Detect(context.Background(), pat, DetectOptions{})
		ingested, err1 := batch.Detect(context.Background(), pat, DetectOptions{})
		got, err2 := streamed.Detect(context.Background(), pat, DetectOptions{})
		if err0 != nil || err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(ingested, want) {
			t.Fatalf("pattern %v: streamed %v (%v), ingested %v (%v), serial %v (%v)", pat, got, err2, ingested, err1, want, err0)
		}
	}

	a, err = streamed.OpenStream(StreamOptions{Block: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	err = a.Append([]Event{{Trace: 1, Activity: "sync", Time: 30}})
	if !errors.Is(err, ErrReachesBack) || !strings.Contains(err.Error(), "reaches back to ts 30") {
		t.Fatalf("reaching-back append: %v", err)
	}
	if err := a.Append([]Event{{Trace: 1, Activity: "sync", Time: 31}}); err != nil {
		t.Fatalf("append after a refused one: %v", err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestReachBackIngestBesideOpenStream: a reaching-back partial-order Ingest
// fails alone even while a stream holds the shared pipeline — an Ingest
// racing it and one after it both commit, and so does the stream.
func TestReachBackIngestBesideOpenStream(t *testing.T) {
	e := openMem(t, Config{PartialOrder: true, Workers: 2})
	a, err := e.OpenStream(StreamOptions{Block: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Append([]Event{{Trace: 1, Activity: "a", Time: 1}, {Trace: 1, Activity: "b", Time: 5}}); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	for round := int64(0); round < 20; round++ {
		var (
			wg         sync.WaitGroup
			bad, good  error
			base       = 10 * (round + 1)
			reachBack  = []Event{{Trace: 1, Activity: "c", Time: 3}, {Trace: 100 + round, Activity: "a", Time: 1}}
			concurrent = []Event{{Trace: 200 + round, Activity: "a", Time: base}, {Trace: 200 + round, Activity: "b", Time: base + 1}}
		)
		wg.Add(2)
		go func() { defer wg.Done(); _, bad = e.Ingest(reachBack) }()
		go func() { defer wg.Done(); _, good = e.Ingest(concurrent) }()
		wg.Wait()
		if !errors.Is(bad, ErrReachesBack) || good != nil {
			t.Fatalf("round %d: reaching-back Ingest = %v, concurrent Ingest = %v", round, bad, good)
		}
		if _, err := e.Ingest([]Event{{Trace: 300 + round, Activity: "a", Time: 1}, {Trace: 300 + round, Activity: "b", Time: 2}}); err != nil {
			t.Fatalf("round %d: later Ingest: %v", round, err)
		}
		if err := a.Append([]Event{{Trace: 1, Activity: "a", Time: base}}); err != nil {
			t.Fatalf("round %d: stream append: %v", round, err)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	ids, err := detectTraces(e, []string{"a", "b"})
	if err != nil || len(ids) != 41 {
		t.Fatalf("a,b traces = %v (%v), want trace 1 plus 40 accepted batches", ids, err)
	}
	if _, ok, _ := e.TraceEvents(100); ok {
		t.Fatal("refused batch stored its other trace")
	}
}

// failingTables fails every commit while fail is set.
type failingTables struct {
	storage.Backend
	fail atomic.Bool
}

func (f *failingTables) Commit(period string, d *storage.Delta) ([]kvstore.Durability, error) {
	if f.fail.Load() {
		return nil, errors.New("injected commit failure")
	}
	return f.Backend.Commit(period, d)
}

// TestFailedPipelineIsDetached: once a commit fails the shared pipeline,
// its holders keep seeing the failure, but the next Ingest or OpenStream
// starts a fresh pipeline instead of joining the failed one.
func TestFailedPipelineIsDetached(t *testing.T) {
	e := openMem(t, Config{})
	ft := &failingTables{Backend: e.tables}
	e.tables = ft
	a, err := e.OpenStream(StreamOptions{Block: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ft.fail.Store(true)
	if err := a.Append(streamEvents()[:4]); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err == nil {
		t.Fatal("flush through failing tables succeeded")
	}
	ft.fail.Store(false)
	if _, err := e.Ingest(streamEvents()[4:]); err != nil {
		t.Fatalf("Ingest after the failure: %v", err)
	}
	if err := a.Append(streamEvents()[:4]); err == nil {
		t.Fatal("the failed pipeline's holder appended again")
	}
	ids, err := detectTraces(e, []string{"search", "view"})
	if err != nil || !reflect.DeepEqual(ids, []int64{2, 3}) {
		t.Fatalf("search,view traces = %v (%v), want the fresh pipeline's [2 3]", ids, err)
	}
}

// TestAlphabetResentAfterFailedCommit: a commit that fails after the
// alphabet grew may not have stored the new names, so the pipeline that
// replaces the failed one sends the alphabet again, and a reopen still
// resolves what it ingested.
func TestAlphabetResentAfterFailedCommit(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ft := &failingTables{Backend: e.tables}
	e.tables = ft
	if _, err := e.Ingest([]Event{{Trace: 1, Activity: "a", Time: 1}}); err != nil {
		t.Fatal(err)
	}
	ft.fail.Store(true)
	if _, err := e.Ingest([]Event{{Trace: 2, Activity: "b", Time: 1}}); err == nil {
		t.Fatal("ingest through failing tables succeeded")
	}
	ft.fail.Store(false)
	if _, err := e.Ingest([]Event{{Trace: 3, Activity: "b", Time: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e, err = Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	evs, ok, err := e.TraceEvents(3)
	if err != nil || !ok || len(evs) != 1 || evs[0].Activity != "b" {
		t.Fatalf("trace 3 after reopen = %v, %v, %v; want one event of activity b", evs, ok, err)
	}
}

// TestStreamGuards: appender misuse — a closed appender refuses appends
// and flushes, a second Close is a no-op, and an Engine.Close refuses every
// appender still open.
func TestStreamGuards(t *testing.T) {
	e, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.OpenStream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Append(streamEvents()); err == nil {
		t.Fatal("append on closed appender accepted")
	}
	if err := a.Flush(); err == nil {
		t.Fatal("flush on closed appender accepted")
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	open, err := e.OpenStream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := open.Append(streamEvents()); err == nil {
		t.Fatal("append after Engine.Close accepted")
	}
}

// TestStreamOverloadedSurfaces: the typed backpressure error reaches the
// facade on a non-blocking stream.
func TestStreamOverloadedSurfaces(t *testing.T) {
	e := openMem(t, Config{FlushEvents: 2, IngestQueue: 4, FlushInterval: time.Hour})
	a, err := e.OpenStream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Grab the engine lock so flushes stall and the queue stays full.
	e.mu.Lock()
	var sawOverload bool
	for i := 0; i < 50; i++ {
		err := a.Append([]Event{{Trace: 1, Activity: "x", Time: int64(i)}})
		if errors.Is(err, ErrOverloaded) {
			sawOverload = true
			break
		}
		if err != nil {
			e.mu.Unlock()
			t.Fatal(err)
		}
	}
	e.mu.Unlock()
	if !sawOverload {
		t.Fatal("queue never pushed back")
	}
}
