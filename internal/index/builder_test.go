package index

import (
	"context"
	"encoding/binary"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"seqlog/internal/kvstore"
	"seqlog/internal/model"
	"seqlog/internal/pairs"
	"seqlog/internal/storage"
)

func newBuilder(t *testing.T, opts Options) (*Builder, *storage.Tables) {
	t.Helper()
	tb := storage.NewTables(kvstore.NewMemStore())
	b, err := NewBuilder(tb, opts)
	if err != nil {
		t.Fatal(err)
	}
	return b, tb
}

func ev(trace model.TraceID, a byte, ts int64) model.Event {
	return model.Event{Trace: trace, Activity: model.ActivityID(a), TS: model.Timestamp(ts)}
}

func key(a, b byte) model.PairKey {
	return model.NewPairKey(model.ActivityID(a), model.ActivityID(b))
}

// collectIndex flattens the default partition into a comparable map.
func collectIndex(t *testing.T, tb *storage.Tables) map[model.PairKey][]storage.IndexEntry {
	t.Helper()
	out := make(map[model.PairKey][]storage.IndexEntry)
	err := tb.ScanIndex(context.Background(), "", func(k model.PairKey, es []storage.IndexEntry) error {
		cp := append([]storage.IndexEntry(nil), es...)
		sort.Slice(cp, func(i, j int) bool {
			if cp[i].Trace != cp[j].Trace {
				return cp[i].Trace < cp[j].Trace
			}
			return cp[i].TsB < cp[j].TsB
		})
		out[k] = cp
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// indexRow reads one pair's row of one partition through ScanIndex.
func indexRow(t *testing.T, tb *storage.Tables, period string, pair model.PairKey) []storage.IndexEntry {
	t.Helper()
	var out []storage.IndexEntry
	err := tb.ScanIndex(context.Background(), period, func(k model.PairKey, es []storage.IndexEntry) error {
		if k == pair {
			out = append(out, es...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRejectsSTAM(t *testing.T) {
	tb := storage.NewTables(kvstore.NewMemStore())
	if _, err := NewBuilder(tb, Options{Policy: model.STAM}); err == nil {
		t.Fatal("STAM accepted")
	}
}

func TestUpdateTable3Trace(t *testing.T) {
	// The worked example of the paper: trace <(A,1),(A,2),(B,3),(A,4),(B,5),(A,6)>.
	batch := []model.Event{
		ev(1, 'A', 1), ev(1, 'A', 2), ev(1, 'B', 3), ev(1, 'A', 4), ev(1, 'B', 5), ev(1, 'A', 6),
	}

	b, tb := newBuilder(t, Options{Policy: model.STNM, Method: pairs.Indexing, Workers: 1})
	st, err := b.Update(batch)
	if err != nil {
		t.Fatal(err)
	}
	if st.Traces != 1 || st.Events != 6 {
		t.Fatalf("stats = %+v", st)
	}
	got := collectIndex(t, tb)
	want := map[model.PairKey][]storage.IndexEntry{
		key('A', 'A'): {{Trace: 1, TsA: 1, TsB: 2}, {Trace: 1, TsA: 4, TsB: 6}},
		key('B', 'A'): {{Trace: 1, TsA: 3, TsB: 4}, {Trace: 1, TsA: 5, TsB: 6}},
		key('B', 'B'): {{Trace: 1, TsA: 3, TsB: 5}},
		key('A', 'B'): {{Trace: 1, TsA: 1, TsB: 3}, {Trace: 1, TsA: 4, TsB: 5}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("index:\ngot  %v\nwant %v", got, want)
	}
	if st.Occurrences != 7 || st.Pairs != 4 {
		t.Fatalf("stats = %+v", st)
	}

	// Counts: (A,B) completed twice with durations 2 and 1.
	cnt, ok, err := tb.GetPairCount(context.Background(), model.ActivityID('A'), model.ActivityID('B'))
	if err != nil || !ok || cnt.Completions != 2 || cnt.SumDuration != 3 {
		t.Fatalf("count(A,B) = %+v %v %v", cnt, ok, err)
	}
	// The Count row of A lists its successors with their totals.
	row, err := tb.GetCounts(context.Background(), model.ActivityID('A'))
	if err != nil {
		t.Fatal(err)
	}
	wantRow := []storage.CountEntry{
		{Other: model.ActivityID('A'), SumDuration: 3, Completions: 2},
		{Other: model.ActivityID('B'), SumDuration: 3, Completions: 2},
	}
	if !reflect.DeepEqual(row, wantRow) {
		t.Fatalf("count row of A = %v, want %v", row, wantRow)
	}
	// Predecessors of B are Count pair reads: (B,B) completed once in 2.
	cnt, ok, err = tb.GetPairCount(context.Background(), model.ActivityID('B'), model.ActivityID('B'))
	if err != nil || !ok || cnt.Completions != 1 || cnt.SumDuration != 2 {
		t.Fatalf("count(B,B) = %+v %v %v", cnt, ok, err)
	}
	// LastChecked holds the last completion of the pair.
	lc, err := tb.GetLastCompletion(context.Background(), key('A', 'B'))
	if err != nil || lc != 5 {
		t.Fatalf("lastchecked(A,B) = %v %v", lc, err)
	}
}

func TestSCPolicy(t *testing.T) {
	b, tb := newBuilder(t, Options{Policy: model.SC, Workers: 1})
	if _, err := b.Update([]model.Event{ev(1, 'A', 1), ev(1, 'B', 2), ev(1, 'A', 3)}); err != nil {
		t.Fatal(err)
	}
	got := collectIndex(t, tb)
	want := map[model.PairKey][]storage.IndexEntry{
		key('A', 'B'): {{Trace: 1, TsA: 1, TsB: 2}},
		key('B', 'A'): {{Trace: 1, TsA: 2, TsB: 3}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("index: %v", got)
	}
}

// TestIncrementalEqualsBatch is the Algorithm 1 core property: splitting a
// log into many batches (even splitting traces across batches) produces
// byte-identical index content to one big batch.
func TestIncrementalEqualsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, policy := range []model.Policy{model.SC, model.STNM} {
		for iter := 0; iter < 20; iter++ {
			// Random multi-trace event set with global timestamps.
			var events []model.Event
			numTraces := 1 + rng.Intn(5)
			ts := int64(0)
			for len(events) < 60 {
				ts++
				events = append(events, ev(model.TraceID(1+rng.Intn(numTraces)), byte('A'+rng.Intn(4)), ts))
			}

			oneShot, tbOne := newBuilder(t, Options{Policy: policy, Method: pairs.Indexing, Workers: 1})
			if _, err := oneShot.Update(events); err != nil {
				t.Fatal(err)
			}

			incr, tbIncr := newBuilder(t, Options{Policy: policy, Method: pairs.State, Workers: 2})
			for lo := 0; lo < len(events); {
				hi := lo + 1 + rng.Intn(20)
				if hi > len(events) {
					hi = len(events)
				}
				if _, err := incr.Update(events[lo:hi]); err != nil {
					t.Fatal(err)
				}
				lo = hi
			}

			got, want := collectIndex(t, tbIncr), collectIndex(t, tbOne)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("policy=%v iter=%d: incremental != batch\ngot  %v\nwant %v", policy, iter, got, want)
			}

			// Counts must agree too.
			for a := byte('A'); a <= 'D'; a++ {
				c1, _ := tbOne.GetCounts(context.Background(), model.ActivityID(a))
				c2, _ := tbIncr.GetCounts(context.Background(), model.ActivityID(a))
				if !reflect.DeepEqual(c1, c2) {
					t.Fatalf("policy=%v iter=%d: counts(%c) %v != %v", policy, iter, a, c2, c1)
				}
			}
		}
	}
}

// TestReplayedBatchAddsNothing: re-submitting already indexed events must not
// create duplicates (the LastChecked role of Algorithm 1).
func TestReplayedBatchAddsNothing(t *testing.T) {
	batch := []model.Event{ev(1, 'A', 1), ev(1, 'B', 2), ev(1, 'A', 3)}
	b, tb := newBuilder(t, Options{Policy: model.STNM, Method: pairs.Indexing, Workers: 1})
	if _, err := b.Update(batch); err != nil {
		t.Fatal(err)
	}
	before := collectIndex(t, tb)

	// Replaying the same events: they sort before the stored boundary, get
	// normalised after it, and extend the trace; the index grows by design
	// (the events are treated as new occurrences with bumped timestamps).
	// The *dedup* contract is about overlapping extraction windows, which
	// the boundary filter covers: an Update with zero new events is a
	// no-op.
	if _, err := b.Update(nil); err != nil {
		t.Fatal(err)
	}
	after := collectIndex(t, tb)
	if !reflect.DeepEqual(before, after) {
		t.Fatal("empty update changed the index")
	}
}

func TestTimestampNormalisation(t *testing.T) {
	// Duplicate and regressing timestamps are bumped to keep the strict
	// total order of Definition 2.1.
	b, tb := newBuilder(t, Options{Policy: model.SC, Workers: 1})
	if _, err := b.Update([]model.Event{ev(1, 'A', 5), ev(1, 'B', 5), ev(1, 'C', 4)}); err != nil {
		t.Fatal(err)
	}
	seq, ok, err := tb.GetSeq(context.Background(), 1)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if len(seq) != 3 {
		t.Fatalf("seq = %v", seq)
	}
	for i := 1; i < len(seq); i++ {
		if seq[i].TS <= seq[i-1].TS {
			t.Fatalf("not strictly increasing: %v", seq)
		}
	}
	// Sort is stable: C@4 comes first, then A@5, then B bumped to 6.
	if seq[0].Activity != model.ActivityID('C') || seq[1].Activity != model.ActivityID('A') {
		t.Fatalf("order: %v", seq)
	}
}

func TestPeriodPartitionedUpdate(t *testing.T) {
	tb := storage.NewTables(kvstore.NewMemStore())
	b1, _ := NewBuilder(tb, Options{Policy: model.STNM, Method: pairs.Indexing, Workers: 1, Period: "p1"})
	b2, _ := NewBuilder(tb, Options{Policy: model.STNM, Method: pairs.Indexing, Workers: 1, Period: "p2"})

	if _, err := b1.Update([]model.Event{ev(1, 'A', 1), ev(1, 'B', 2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := b2.Update([]model.Event{ev(1, 'A', 3), ev(1, 'B', 4)}); err != nil {
		t.Fatal(err)
	}

	p1 := indexRow(t, tb, "p1", key('A', 'B'))
	if len(p1) != 1 || p1[0].TsB != 2 {
		t.Fatalf("p1 = %v", p1)
	}
	p2 := indexRow(t, tb, "p2", key('A', 'B'))
	if len(p2) != 1 {
		t.Fatalf("p2 = %v", p2)
	}
	// Cross-batch dedup holds across partitions: p2 must contain only the
	// occurrence completing after p1's boundary. (A,B)=(1,2) is in p1;
	// the full trace A1 B2 A3 B4 also has (3,4), which lands in p2.
	if p2[0].TsA != 3 || p2[0].TsB != 4 {
		t.Fatalf("p2 entry = %+v", p2[0])
	}
	// The join's cross-period read sees both partitions.
	all, err := tb.GetPostings(context.Background(), key('A', 'B'))
	if err != nil || all.Total() != 2 {
		t.Fatalf("all = %v %v", all, err)
	}
}

func TestPruneTraces(t *testing.T) {
	b, tb := newBuilder(t, Options{Policy: model.STNM, Method: pairs.Indexing, Workers: 1})
	if _, err := b.Update([]model.Event{ev(1, 'A', 1), ev(1, 'B', 5), ev(2, 'A', 1), ev(2, 'B', 2)}); err != nil {
		t.Fatal(err)
	}
	if err := b.PruneTraces([]model.TraceID{1}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tb.GetSeq(context.Background(), 1); ok {
		t.Fatal("pruned trace still in Seq")
	}
	if _, ok, _ := tb.GetSeq(context.Background(), 2); !ok {
		t.Fatal("wrong trace pruned")
	}
	// The statistics keep the pruned trace's history: it held the pair's
	// latest completion, which must not fall back to trace 2's.
	if lc, err := tb.GetLastCompletion(context.Background(), key('A', 'B')); err != nil || lc != 5 {
		t.Fatalf("lastchecked(A,B) after prune = %v %v, want 5", lc, err)
	}
	// The inverted index keeps historical occurrences.
	es := indexRow(t, tb, "", key('A', 'B'))
	if len(es) != 2 {
		t.Fatalf("index lost pruned trace history: %v", es)
	}
}

// writeLog wraps a store and records, per table, the Put and Append calls
// and the largest value Put.
type writeLog struct {
	kvstore.Store
	mu     sync.Mutex
	writes map[string]int
	maxPut map[string]int
}

func newWriteLog() *writeLog {
	return &writeLog{Store: kvstore.NewMemStore(), writes: map[string]int{}, maxPut: map[string]int{}}
}

func (s *writeLog) Put(table, key string, value []byte) error {
	s.mu.Lock()
	s.writes[table]++
	s.maxPut[table] = max(s.maxPut[table], len(value))
	s.mu.Unlock()
	return s.Store.Put(table, key, value)
}

func (s *writeLog) Append(table, key string, value []byte) error {
	s.mu.Lock()
	s.writes[table]++
	s.mu.Unlock()
	return s.Store.Append(table, key, value)
}

// TestLastCheckedRowStaysScalar: the row the builder rewrites per batch must
// not grow with the number of traces that ever held the pair.
func TestLastCheckedRowStaysScalar(t *testing.T) {
	store := newWriteLog()
	b, err := NewBuilder(storage.NewTables(store), Options{Policy: model.STNM, Method: pairs.Indexing})
	if err != nil {
		t.Fatal(err)
	}
	for id := model.TraceID(1); id <= 200; id++ {
		if _, err := b.Update([]model.Event{ev(id, 'A', int64(id)), ev(id, 'B', int64(id)+1)}); err != nil {
			t.Fatal(err)
		}
	}
	if puts, largest := store.writes["lastchecked"], store.maxPut["lastchecked"]; puts != 200 || largest > binary.MaxVarintLen64 {
		t.Fatalf("lastchecked: %d puts, largest %d bytes; want 200 puts of at most %d bytes",
			puts, largest, binary.MaxVarintLen64)
	}
}

// TestNoReverseCountWrites: the builder keeps no Reverse Count table — a
// batch writes Seq, Index, Count and LastChecked rows, and nothing to the
// "rcount" table older builds kept.
func TestNoReverseCountWrites(t *testing.T) {
	store := newWriteLog()
	b, err := NewBuilder(storage.NewTables(store), Options{Policy: model.STNM, Method: pairs.Indexing, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(26))
	for batch := 0; batch < 3; batch++ {
		var events []model.Event
		for i := 0; i < 300; i++ {
			events = append(events, ev(model.TraceID(1+rng.Intn(20)), byte('A'+rng.Intn(6)), int64(batch*1000+i)))
		}
		if _, err := b.Update(events); err != nil {
			t.Fatal(err)
		}
	}
	if store.writes["rcount"] != 0 || store.writes["count"] == 0 {
		t.Fatalf("writes per table = %v; want count rows and no rcount rows", store.writes)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var events []model.Event
	for i := 0; i < 2000; i++ {
		events = append(events, ev(model.TraceID(1+rng.Intn(50)), byte('A'+rng.Intn(10)), int64(i+1)))
	}
	seq, tbSeq := newBuilder(t, Options{Policy: model.STNM, Method: pairs.Indexing, Workers: 1})
	par, tbPar := newBuilder(t, Options{Policy: model.STNM, Method: pairs.Indexing, Workers: 8})
	if _, err := seq.Update(events); err != nil {
		t.Fatal(err)
	}
	if _, err := par.Update(events); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(collectIndex(t, tbSeq), collectIndex(t, tbPar)) {
		t.Fatal("parallel index differs from sequential")
	}
}

func TestAllMethodsProduceSameIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var events []model.Event
	for i := 0; i < 1000; i++ {
		events = append(events, ev(model.TraceID(1+rng.Intn(20)), byte('A'+rng.Intn(6)), int64(i+1)))
	}
	var snapshots []map[model.PairKey][]storage.IndexEntry
	for _, m := range []pairs.Method{pairs.Parsing, pairs.Indexing, pairs.State} {
		b, tb := newBuilder(t, Options{Policy: model.STNM, Method: m, Workers: 2})
		if _, err := b.Update(events); err != nil {
			t.Fatal(err)
		}
		snapshots = append(snapshots, collectIndex(t, tb))
	}
	if !reflect.DeepEqual(snapshots[0], snapshots[1]) || !reflect.DeepEqual(snapshots[1], snapshots[2]) {
		t.Fatal("methods disagree at the index level")
	}
}

func TestPartialOrderRequiresSTNM(t *testing.T) {
	tb := storage.NewTables(kvstore.NewMemStore())
	if _, err := NewBuilder(tb, Options{Policy: model.SC, PartialOrder: true}); err == nil {
		t.Fatal("partial order with SC accepted")
	}
}

func TestPartialOrderPreservesTies(t *testing.T) {
	b, tb := newBuilder(t, Options{Policy: model.STNM, PartialOrder: true, Workers: 1})
	// {A,B} concurrent at ts 1, C at ts 2.
	batch := []model.Event{ev(1, 'A', 1), ev(1, 'B', 1), ev(1, 'C', 2)}
	if _, err := b.Update(batch); err != nil {
		t.Fatal(err)
	}
	got := collectIndex(t, tb)
	if _, ok := got[key('A', 'B')]; ok {
		t.Fatalf("concurrent events paired: %v", got)
	}
	if es := got[key('A', 'C')]; len(es) != 1 || es[0].TsA != 1 || es[0].TsB != 2 {
		t.Fatalf("(A,C) = %v", es)
	}
	// The stored sequence keeps the tie.
	seq, _, _ := tb.GetSeq(context.Background(), 1)
	if seq[0].TS != seq[1].TS {
		t.Fatalf("tie destroyed: %v", seq)
	}
}

func TestPartialOrderIncremental(t *testing.T) {
	b, tb := newBuilder(t, Options{Policy: model.STNM, PartialOrder: true, Workers: 1})
	if _, err := b.Update([]model.Event{ev(1, 'A', 1), ev(1, 'B', 1)}); err != nil {
		t.Fatal(err)
	}
	// A later batch extends the trace; strictly increasing is fine.
	if _, err := b.Update([]model.Event{ev(1, 'C', 2), ev(1, 'D', 2)}); err != nil {
		t.Fatal(err)
	}
	got := collectIndex(t, tb)
	// (A,C), (A,D), (B,C), (B,D) each once; no pairs within tie groups.
	for _, k := range []model.PairKey{key('A', 'C'), key('A', 'D'), key('B', 'C'), key('B', 'D')} {
		if len(got[k]) != 1 {
			t.Fatalf("pair %v = %v", k, got[k])
		}
	}
	if len(got) != 4 {
		t.Fatalf("index = %v", got)
	}
	// A batch reaching back into the stored tie group is rejected.
	if _, err := b.Update([]model.Event{ev(1, 'E', 2)}); err == nil {
		t.Fatal("backfill into stored tie group accepted")
	}
}

func TestPartialOrderEqualsTotalWithoutTies(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var events []model.Event
	for i := 0; i < 500; i++ {
		events = append(events, ev(model.TraceID(1+rng.Intn(10)), byte('A'+rng.Intn(5)), int64(i+1)))
	}
	total, tbTotal := newBuilder(t, Options{Policy: model.STNM, Method: pairs.Indexing, Workers: 1})
	partial, tbPartial := newBuilder(t, Options{Policy: model.STNM, PartialOrder: true, Workers: 1})
	if _, err := total.Update(events); err != nil {
		t.Fatal(err)
	}
	if _, err := partial.Update(events); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(collectIndex(t, tbTotal), collectIndex(t, tbPartial)) {
		t.Fatal("partial-order index differs on tie-free data")
	}
}

// TestConcurrentUpdatesAreSerialized: overlapping Update calls are safe — the
// builder's internal mutex queues them. Each goroutine owns disjoint traces,
// so any serialization order yields the same index; run under -race this also
// proves the calls do not trample the shared accumulators.
func TestConcurrentUpdatesAreSerialized(t *testing.T) {
	const workers = 8
	var batches [workers][]model.Event
	var all []model.Event
	for w := 0; w < workers; w++ {
		ts := int64(0)
		for i := 0; i < 40; i++ {
			ts++
			e := ev(model.TraceID(w+1), byte('A'+(i*7+w)%5), ts)
			batches[w] = append(batches[w], e)
			all = append(all, e)
		}
	}

	conc, tbConc := newBuilder(t, Options{Policy: model.STNM, Method: pairs.State, Workers: 2})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Split each goroutine's stream in two so calls genuinely
			// overlap calls from other goroutines mid-sequence.
			if _, err := conc.Update(batches[w][:20]); err != nil {
				t.Error(err)
				return
			}
			if _, err := conc.Update(batches[w][20:]); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()

	serial, tbSerial := newBuilder(t, Options{Policy: model.STNM, Method: pairs.State, Workers: 1})
	if _, err := serial.Update(all); err != nil {
		t.Fatal(err)
	}
	if got, want := collectIndex(t, tbConc), collectIndex(t, tbSerial); !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent updates diverged from serial\ngot  %v\nwant %v", got, want)
	}
}

// TestCrossBatchDedupOracle (Algorithm 1): interleaving traces across many
// tiny batches must yield exactly the occurrences of one big batch — the
// boundary watermark filters every re-extracted occurrence — for SC and all
// three STNM flavors.
func TestCrossBatchDedupOracle(t *testing.T) {
	type cfg struct {
		policy model.Policy
		method pairs.Method
	}
	cfgs := []cfg{
		{model.SC, pairs.Indexing},
		{model.STNM, pairs.Parsing},
		{model.STNM, pairs.Indexing},
		{model.STNM, pairs.State},
	}
	rng := rand.New(rand.NewSource(31))
	for _, c := range cfgs {
		for iter := 0; iter < 10; iter++ {
			var events []model.Event
			ts := int64(0)
			numTraces := 2 + rng.Intn(4)
			for len(events) < 80 {
				ts++
				events = append(events, ev(model.TraceID(1+rng.Intn(numTraces)), byte('A'+rng.Intn(4)), ts))
			}

			big, tbBig := newBuilder(t, Options{Policy: c.policy, Method: c.method, Workers: 1})
			bigStats, err := big.Update(events)
			if err != nil {
				t.Fatal(err)
			}

			tiny, tbTiny := newBuilder(t, Options{Policy: c.policy, Method: c.method, Workers: 1})
			tinyOcc := 0
			for lo := 0; lo < len(events); {
				hi := lo + 1 + rng.Intn(3)
				if hi > len(events) {
					hi = len(events)
				}
				st, err := tiny.Update(events[lo:hi])
				if err != nil {
					t.Fatal(err)
				}
				tinyOcc += st.Occurrences
				lo = hi
			}

			if tinyOcc != bigStats.Occurrences {
				t.Fatalf("%v/%v iter %d: tiny batches produced %d occurrences, one batch %d",
					c.policy, c.method, iter, tinyOcc, bigStats.Occurrences)
			}
			if got, want := collectIndex(t, tbTiny), collectIndex(t, tbBig); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v/%v iter %d: tiny-batch index != big-batch index", c.policy, c.method, iter)
			}
			for a := byte('A'); a <= 'D'; a++ {
				c1, _ := tbBig.GetCounts(context.Background(), model.ActivityID(a))
				c2, _ := tbTiny.GetCounts(context.Background(), model.ActivityID(a))
				if !reflect.DeepEqual(c1, c2) {
					t.Fatalf("%v/%v iter %d: counts(%c) diverged", c.policy, c.method, iter, a)
				}
			}
		}
	}
}
