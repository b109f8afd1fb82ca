package ingest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"seqlog/internal/index"
	"seqlog/internal/kvstore"
	"seqlog/internal/model"
	"seqlog/internal/shard"
	"seqlog/internal/storage"
)

// Tests of the parallel write path: per-store flushers, pipelined group
// commits, all-or-nothing admission and timer hygiene.

// TestTimerHygieneNoSpuriousWakes is the regression test of the flusher's
// timer misuse: a kick-driven wake that raced a timer expiry used to Reset
// the timer without draining it, so the stale tick fired an immediate bogus
// wake (and a premature tiny flush). With a fresh timer per arming a tick can
// only ever arrive a full interval after the re-arm, which the pipeline
// counts — the workload below forces the kick/expiry race every round and
// the counter must stay exactly zero.
func TestTimerHygieneNoSpuriousWakes(t *testing.T) {
	tb := storage.NewTables(kvstore.NewMemStore())
	const interval = 5 * time.Millisecond
	p, err := New(tb, Options{
		Policy:        model.STNM,
		Workers:       1,
		FlushEvents:   1, // every append kicks
		FlushInterval: interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	rounds := 50
	if testing.Short() {
		rounds = 15 // the race window is per-round; fewer rounds, same race
	}
	for i := 0; i < rounds; i++ {
		// Sleep one full interval so the pending expiry fires right around
		// the kick the append sends.
		time.Sleep(interval)
		ev := model.Event{Trace: 1, Activity: model.ActivityID(i % 3), TS: model.Timestamp(i + 1)}
		if err := p.Append([]model.Event{ev}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if n := p.spuriousWakes.Load(); n != 0 {
		t.Fatalf("%d spurious timer wakes leaked past the re-arm (want 0)", n)
	}
	if st := p.Stats(); st.Flushed != int64(rounds) {
		t.Fatalf("flushed %d of %d", st.Flushed, rounds)
	}
}

// TestAdmissionAllOrNothing is the regression test of the ErrOverloaded
// contract: a refused batch must leave NOTHING admitted — the old chunked
// admission could enqueue a prefix of the batch and then fail, tearing it.
func TestAdmissionAllOrNothing(t *testing.T) {
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
	gate.Lock() // stall commits so credits never come home

	evs := func(n, from int) []model.Event {
		out := make([]model.Event, n)
		for i := range out {
			out[i] = model.Event{Trace: 1, Activity: model.ActivityID(i % 3), TS: model.Timestamp(from + i)}
		}
		return out
	}
	if err := tryAppend(p, evs(6, 1)); err != nil {
		t.Fatal(err)
	}
	// 3 > the 2 free credits: the whole batch must bounce, not 2 of it.
	if err := tryAppend(p, evs(3, 7)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("partial-fit batch: %v, want ErrOverloaded", err)
	}
	if st := p.Stats(); st.Accepted != 6 {
		t.Fatalf("refused batch leaked events into admission: %+v", st)
	}
	// Exactly-fitting remainder still goes through: the pool was untouched.
	if err := tryAppend(p, evs(2, 7)); err != nil {
		t.Fatalf("exact-fit batch after a refusal: %v", err)
	}
	if err := tryAppend(p, evs(1, 9)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("append onto a full pool: %v, want ErrOverloaded", err)
	}
	gate.Unlock()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Accepted != 8 || st.Flushed != 8 {
		t.Fatalf("stats %+v, want exactly the 8 admitted events flushed", st)
	}
}

// TestAdmissionOversizeWhole: a batch larger than the whole queue is
// admitted in one piece by overdrawing a fully-free pool — never chunked —
// and the overdraft applies backpressure to everything behind it.
func TestAdmissionOversizeWhole(t *testing.T) {
	tb := storage.NewTables(kvstore.NewMemStore())
	var gate sync.Mutex
	p, err := New(tb, Options{
		Policy:        model.STNM,
		Workers:       1,
		FlushEvents:   4,
		QueueEvents:   8,
		FlushInterval: time.Hour,
		CommitLock:    &gate,
	})
	if err != nil {
		t.Fatal(err)
	}
	gate.Lock()
	big := make([]model.Event, 25) // 3× the queue
	for i := range big {
		big[i] = model.Event{Trace: 1, Activity: model.ActivityID(i % 4), TS: model.Timestamp(i + 1)}
	}
	if err := tryAppend(p, big); err != nil {
		t.Fatalf("oversize batch onto a free pool: %v", err)
	}
	if st := p.Stats(); st.Accepted != 25 {
		t.Fatalf("oversize batch admitted partially: %+v", st)
	}
	if err := tryAppend(p, big[:1]); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("append behind an overdraft: %v, want ErrOverloaded", err)
	}
	gate.Unlock()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := dumpTables(t, tb, ""), serialDump(t, big, model.STNM, ""); got != want {
		t.Fatal("oversize admission not indexed equivalently to the serial build")
	}
}

// TestAppendCtxCanceledAdmitsNothing: a cancellation during the admission
// wait must leave the batch fully unadmitted (the cancelled caller will
// retry the whole batch; a torn half would then be double-ingested).
func TestAppendCtxCanceledAdmitsNothing(t *testing.T) {
	tb := storage.NewTables(kvstore.NewMemStore())
	var gate sync.Mutex
	p, err := New(tb, Options{
		Policy:        model.STNM,
		Workers:       1,
		FlushEvents:   4,
		QueueEvents:   8,
		FlushInterval: time.Hour,
		CommitLock:    &gate,
	})
	if err != nil {
		t.Fatal(err)
	}
	gate.Lock()
	fill := make([]model.Event, 8)
	for i := range fill {
		fill[i] = model.Event{Trace: 1, Activity: 0, TS: model.Timestamp(i + 1)}
	}
	if err := p.Append(fill); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err = p.AppendCtx(ctx, []model.Event{{Trace: 2, Activity: 0, TS: 1}, {Trace: 2, Activity: 1, TS: 2}}, true)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled admission wait: %v, want DeadlineExceeded", err)
	}
	if st := p.Stats(); st.Accepted != 8 {
		t.Fatalf("cancelled batch leaked events into admission: %+v", st)
	}
	gate.Unlock()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Flushed != 8 {
		t.Fatalf("flushed %d, want exactly the 8 admitted events", st.Flushed)
	}
}

// shardedMemTables returns an n-store backend over memstores.
func shardedMemTables(t *testing.T, n int) *shard.Tables {
	t.Helper()
	stores := make([]kvstore.Store, n)
	for i := range stores {
		stores[i] = kvstore.NewMemStore()
	}
	st, err := shard.New(stores, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStreamShardedEqualsSerial is the cross-shard reducer's oracle: a
// pipeline driving N independent stores through per-store parallel flushers
// must produce tables observably identical to one serial Builder on a single
// store — same rows through the scatter-gathered view, any shard count, SC,
// STNM and partial order.
func TestStreamShardedEqualsSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	// The 40-activity leg makes most events new to their trace.
	for _, leg := range []struct {
		alphabet int
		shards   []int
	}{{4, []int{2, 3}}, {40, []int{1, 3}}} {
		for _, mode := range orderModes {
			for _, nshards := range leg.shards {
				for iter := 0; iter < 3; iter++ {
					events := randomLog(rng, 1+rng.Intn(6), 200, leg.alphabet)
					want := serialBuild(t, events, index.Options{Policy: mode.policy, PartialOrder: mode.partial})

					st := shardedMemTables(t, nshards)
					p, err := New(st, Options{
						Policy:        mode.policy,
						PartialOrder:  mode.partial,
						Workers:       4,
						FlushEvents:   8,
						FlushInterval: time.Millisecond,
					})
					if err != nil {
						t.Fatal(err)
					}
					if len(p.stores) != nshards {
						t.Fatalf("pipeline found %d stores on a %d-shard backend", len(p.stores), nshards)
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
					if got := dumpTables(t, st, ""); got != want {
						t.Fatalf("alphabet=%d policy=%v partial=%v shards=%d iter=%d: sharded stream diverges from serial build\ngot:\n%s\nwant:\n%s",
							leg.alphabet, mode.policy, mode.partial, nshards, iter, got, want)
					}
				}
			}
		}
	}
}

// TestParallelFlushersRaceHammer drives the full concurrent surface at once
// — parallel producers, explicit Flush barriers, Forget, per-store parallel
// flushers over durable sharded stores, pipelined commits — and then checks
// the oracle. Run under -race this is the tentpole's concurrency proof.
func TestParallelFlushersRaceHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	const producers = 4
	perTrace := 1200
	if testing.Short() {
		perTrace = 400 // same shape, bounded wall clock for check.sh tiers
	}
	events := randomLog(rng, producers*4, perTrace, 5)
	want := serialDump(t, events, model.STNM, "")

	parts := make([][]model.Event, producers)
	for _, ev := range events {
		pi := int(ev.Trace) % producers
		parts[pi] = append(parts[pi], ev)
	}

	root := t.TempDir()
	stores := make([]kvstore.Store, 2)
	for i := range stores {
		ds, err := kvstore.OpenDisk(filepath.Join(root, fmt.Sprintf("s%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		stores[i] = ds
	}
	st, err := shard.New(stores, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(st, Options{
		Policy:        model.STNM,
		Workers:       4,
		FlushEvents:   32,
		FlushInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for pi := 0; pi < producers; pi++ {
		wg.Add(1)
		go func(evs []model.Event, seed int64) {
			defer wg.Done()
			prng := rand.New(rand.NewSource(seed))
			for lo := 0; lo < len(evs); {
				hi := lo + 1 + prng.Intn(9)
				if hi > len(evs) {
					hi = len(evs)
				}
				if err := p.Append(evs[lo:hi]); err != nil {
					t.Error(err)
					return
				}
				if prng.Intn(8) == 0 {
					if err := p.Flush(); err != nil {
						t.Error(err)
						return
					}
				}
				lo = hi
			}
		}(parts[pi], int64(pi+1))
	}
	stop := make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() { // Forget races the extraction cycles; sessions reload lazily.
		defer chaos.Done()
		prng := rand.New(rand.NewSource(93))
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				p.Forget([]model.TraceID{model.TraceID(1 + prng.Intn(producers*4))})
			}
		}
	}()
	wg.Wait()
	close(stop)
	chaos.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := dumpTables(t, st, ""); got != want {
		t.Fatalf("hammered sharded stream diverges from serial build\ngot:\n%s\nwant:\n%s", got, want)
	}
	st2 := p.Stats()
	if st2.Flushed != int64(len(events)) || st2.Queued != 0 {
		t.Fatalf("stats after close: %+v, want %d flushed", st2, len(events))
	}
}

// runShardedStreamTorture streams the chunks through a pipeline over a
// 2-store sharded backend on ffs, flushing after each chunk. It returns how
// many flushes were acknowledged (durable on every shard they touched) and,
// when dump is set, the per-shard table dumps after each acknowledged chunk.
func runShardedStreamTorture(t *testing.T, ffs *kvstore.FaultFS, root string, chunks [][]model.Event, dump bool) (acked int, states [][]string) {
	t.Helper()
	const nshards = 2
	stores := make([]kvstore.Store, nshards)
	disks := make([]*kvstore.DiskStore, nshards)
	for i := range stores {
		ds, err := kvstore.OpenDiskWith(filepath.Join(root, fmt.Sprintf("s%d", i)), kvstore.DiskOptions{FS: ffs})
		if err != nil {
			return 0, nil
		}
		defer ds.Close()
		ds.CompactAt = 0
		stores[i], disks[i] = ds, ds
	}
	st, err := shard.New(stores, shard.Options{})
	if err != nil {
		return 0, nil
	}
	p, err := New(st, Options{
		Policy:        model.STNM,
		Workers:       2,
		FlushEvents:   1 << 20, // only explicit flushes: cycle == chunk
		FlushInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if dump {
		states = make([][]string, nshards)
		for i := range states {
			states[i] = []string{dumpTables(t, storage.NewTables(disks[i]), "")}
		}
	}
	for _, c := range chunks {
		if err := p.Append(c); err != nil {
			return acked, states
		}
		if err := p.Flush(); err != nil {
			return acked, states
		}
		acked++
		if dump {
			for i := range states {
				states[i] = append(states[i], dumpTables(t, storage.NewTables(disks[i]), ""))
			}
		}
	}
	return acked, states
}

// TestShardedStreamCrashAckedDurableEveryShard sweeps a power cut across the
// interleaved write streams of a 2-shard pipeline and asserts the durability
// contract of the parallel flushers: every ACKED flush is fsynced on every
// shard it touched (each shard recovers at least the acked chunk prefix),
// and each shard individually recovers to a whole-flush prefix (per-shard
// group atomicity, never half a flush).
func TestShardedStreamCrashAckedDurableEveryShard(t *testing.T) {
	chunks := crashChunks()
	root := t.TempDir()

	probe := kvstore.NewFaultFS(nil)
	acked, states := runShardedStreamTorture(t, probe, filepath.Join(root, "probe"), chunks, true)
	if acked != len(chunks) {
		t.Fatalf("clean run acked %d of %d flushes", acked, len(chunks))
	}
	total := probe.BytesWritten()
	if total == 0 {
		t.Fatal("probe run wrote nothing")
	}

	points := int64(128)
	if testing.Short() {
		points = 32 // sparser sweep, same boundary coverage per flush
	}
	stride := total / points
	if stride < 1 {
		stride = 1
	}
	for b := int64(0); b < total; b += stride {
		testShardedCrashAt(t, root, chunks, states, b)
	}
	testShardedCrashAt(t, root, chunks, states, total-1)
}

func testShardedCrashAt(t *testing.T, root string, chunks [][]model.Event, states [][]string, b int64) {
	t.Helper()
	ffs := kvstore.NewFaultFS(nil)
	ffs.CrashAfterBytes(b)
	dir := filepath.Join(root, fmt.Sprintf("b%06d", b))
	acked, _ := runShardedStreamTorture(t, ffs, dir, chunks, false)
	if !ffs.Crashed() {
		t.Fatalf("byte budget %d never triggered", b)
	}
	for i := range states {
		ds, err := kvstore.OpenDisk(filepath.Join(dir, fmt.Sprintf("s%d", i)))
		if err != nil {
			t.Fatalf("crash at byte %d: shard %d strict recovery failed: %v", b, i, err)
		}
		got := dumpTables(t, storage.NewTables(ds), "")
		ds.Close()
		// At least the acked prefix (the durability contract); at most one
		// further flush that reached the disk without its ack.
		match := false
		for k := acked; k <= acked+1 && k < len(states[i]); k++ {
			if states[i][k] == got {
				match = true
				break
			}
		}
		if !match {
			t.Fatalf("crash at byte %d (acked %d): shard %d did not recover to an acked-covering whole-flush prefix\ngot:\n%s",
				b, acked, i, got)
		}
	}
}
