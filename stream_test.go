package seqlog

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

func streamEvents() []Event {
	return shopEvents()
}

// TestStreamEqualsIngest: the streaming facade must build the same index a
// serial Ingest would — detection results and stats agree.
func TestStreamEqualsIngest(t *testing.T) {
	serial := openMem(t, Config{})
	if _, err := serial.Ingest(streamEvents()); err != nil {
		t.Fatal(err)
	}

	streamed := openMem(t, Config{})
	a, err := streamed.OpenStream(StreamOptions{Workers: 3, FlushEvents: 4, FlushInterval: time.Millisecond, Block: true})
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
	e, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.OpenStream(StreamOptions{FlushEvents: 4, FlushInterval: time.Millisecond, Block: true})
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
// must feed the pipeline (resident sessions would otherwise miss writes).
func TestSerialIngestRoutesThroughOpenStream(t *testing.T) {
	e := openMem(t, Config{})
	a, err := e.OpenStream(StreamOptions{FlushEvents: 4, Block: true})
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

	serial := openMem(t, Config{})
	if _, err := serial.Ingest(evs); err != nil {
		t.Fatal(err)
	}
	want, _ := serial.Detect(context.Background(), []string{"search", "pay"}, DetectOptions{})
	got, err := e.Detect(context.Background(), []string{"search", "pay"}, DetectOptions{})
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("mixed-path index diverges: %v vs %v (%v)", got, want, err)
	}
}

// TestIngestWhenStreamClosesUnderIt: Ingest that found the stream open but
// reaches it after its last appender closed it takes the batch path instead
// of failing with ErrClosed.
func TestIngestWhenStreamClosesUnderIt(t *testing.T) {
	e := openMem(t, Config{})
	a, err := e.OpenStream(StreamOptions{Block: true})
	if err != nil {
		t.Fatal(err)
	}
	evs := streamEvents()
	if err := a.Append(evs[:4]); err != nil {
		t.Fatal(err)
	}
	// The lookup in Ingest still sees this pipeline; its close raced ahead.
	if err := e.pipeline.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := e.Ingest(evs[4:]); err != nil || st.Events != len(evs)-4 {
		t.Fatalf("Ingest after the stream closed = %+v, %v", st, err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	serial := openMem(t, Config{})
	if _, err := serial.Ingest(evs); err != nil {
		t.Fatal(err)
	}
	want, _ := serial.Detect(context.Background(), []string{"search", "pay"}, DetectOptions{})
	got, err := e.Detect(context.Background(), []string{"search", "pay"}, DetectOptions{})
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("index diverges: %v vs %v (%v)", got, want, err)
	}
}

// TestStreamInfoAndSharedPipeline: Info surfaces pipeline counters, second
// OpenStream joins the same pipeline, and the snapshot survives the drain.
func TestStreamInfoAndSharedPipeline(t *testing.T) {
	e := openMem(t, Config{})
	if info, _ := e.Info(); info.Ingest != nil {
		t.Fatalf("ingest stats before any stream: %+v", info.Ingest)
	}
	a1, err := e.OpenStream(StreamOptions{FlushEvents: 4, Block: true})
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
	if err := a1.Close(); err != nil {
		t.Fatal(err)
	}
	// Pipeline still running: a2 keeps it alive.
	if err := a2.Flush(); err != nil {
		t.Fatal(err)
	}
	info, err := e.Info()
	if err != nil || info.Ingest == nil {
		t.Fatalf("info lacks live ingest stats: %+v %v", info.Ingest, err)
	}
	if info.Ingest.Flushed != int64(len(evs)) {
		t.Fatalf("flushed = %d, want %d", info.Ingest.Flushed, len(evs))
	}
	if err := a2.Close(); err != nil {
		t.Fatal(err)
	}
	info, err = e.Info()
	if err != nil || info.Ingest == nil || info.Ingest.Flushed != int64(len(evs)) {
		t.Fatalf("post-drain snapshot missing: %+v %v", info.Ingest, err)
	}
}

// TestStreamRejectsPartialOrder: the partial-order extractor is batch-only.
func TestStreamRejectsPartialOrder(t *testing.T) {
	e := openMem(t, Config{PartialOrder: true})
	if _, err := e.OpenStream(StreamOptions{}); err == nil {
		t.Fatal("partial-order stream accepted")
	}
}

// TestRotatePeriodBlockedWhileStreaming, and appender misuse.
func TestStreamGuards(t *testing.T) {
	e := openMem(t, Config{})
	a, err := e.OpenStream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RotatePeriod("p2"); err == nil {
		t.Fatal("rotate with open stream accepted")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Append(streamEvents()); err == nil {
		t.Fatal("append on closed appender accepted")
	}
	if err := e.RotatePeriod("p2"); err != nil {
		t.Fatalf("rotate after close: %v", err)
	}
}

// TestStreamOverloadedSurfaces: the typed backpressure error reaches the
// facade on a non-blocking stream.
func TestStreamOverloadedSurfaces(t *testing.T) {
	e := openMem(t, Config{})
	a, err := e.OpenStream(StreamOptions{FlushEvents: 2, QueueEvents: 4, FlushInterval: time.Hour})
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
