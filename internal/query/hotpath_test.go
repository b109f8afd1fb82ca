package query

import (
	"context"

	"math/rand"
	"reflect"
	"sync"
	"testing"

	"seqlog/internal/index"
	"seqlog/internal/kvstore"
	"seqlog/internal/model"
	"seqlog/internal/pairs"
	"seqlog/internal/storage"
)

// randomTraces builds n random trace strings over the first k letters.
func randomTraces(rng *rand.Rand, n, length, k int) []string {
	out := make([]string, n)
	for i := range out {
		b := make([]byte, length)
		for j := range b {
			b[j] = byte('A' + rng.Intn(k))
		}
		out[i] = string(b)
	}
	return out
}

// TestDetectMatchesReference asserts the merge join returns exactly what the
// retained pre-overhaul map join returns, across random logs, both
// policies, repeated-activity patterns and the planner.
func TestDetectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	patterns := []string{"AB", "ABC", "ABCD", "AAB", "ABA", "AAAA", "BCA"}
	for _, policy := range []model.Policy{model.STNM, model.SC} {
		for round := 0; round < 5; round++ {
			traces := randomTraces(rng, 20, 30, 4)
			q, _ := buildLog(t, policy, traces...)
			for _, ps := range patterns {
				p := pattern(ps)
				want, err := detectReference(q, p)
				if err != nil {
					t.Fatal(err)
				}
				got, err := q.Detect(context.Background(), p)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("policy=%v pattern=%s: merge join %v != reference %v", policy, ps, got, want)
				}
				planned, err := q.DetectPlanned(context.Background(), p)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(planned, want) {
					t.Fatalf("policy=%v pattern=%s: planned %v != reference %v", policy, ps, planned, want)
				}
			}
		}
	}
}

// TestDetectWithinMatchesFilteredReference: join-time window pruning must
// equal post-filtering the unconstrained reference result.
func TestDetectWithinMatchesFilteredReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	traces := randomTraces(rng, 25, 40, 3)
	q, _ := buildLog(t, model.STNM, traces...)
	p := pattern("ABC")
	all, err := detectReference(q, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, within := range []int64{1, 2, 5, 10, 100} {
		var want []Match
		for _, m := range all {
			if m.Duration() <= within {
				want = append(want, m)
			}
		}
		got, err := q.DetectWithin(context.Background(), p, within)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("within=%d: %v != %v", within, got, want)
		}
	}
}

// coldDetect answers the pattern through a fresh cache-disabled Processor
// over the same store — the oracle for cache-correctness tests.
func coldDetect(t *testing.T, tb *storage.Tables, p model.Pattern) []Match {
	t.Helper()
	fresh := storage.NewTables(tb.Store())
	fresh.SetCacheBudget(-1)
	ms, err := NewProcessor(fresh).Detect(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// TestCachedDetectMatchesColdProcessor interleaves AppendIndex and
// DropPeriod with detection and asserts the cached processor always returns
// exactly what a cold processor over the same store returns.
func TestCachedDetectMatchesColdProcessor(t *testing.T) {
	tb := storage.NewTables(kvstore.NewMemStore())
	q := NewProcessor(tb)
	p := pattern("ABC")
	ab := model.NewPairKey(act('A'), act('B'))
	bc := model.NewPairKey(act('B'), act('C'))

	check := func(step string) {
		t.Helper()
		got, err := q.Detect(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if want := coldDetect(t, tb, p); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: cached %v != cold %v", step, got, want)
		}
	}

	mustAppend := func(period string, pair model.PairKey, entries ...storage.IndexEntry) {
		t.Helper()
		if err := tb.AppendIndex(period, pair, entries); err != nil {
			t.Fatal(err)
		}
	}

	check("empty index")
	mustAppend("", ab, storage.IndexEntry{Trace: 1, TsA: 1, TsB: 2})
	mustAppend("", bc, storage.IndexEntry{Trace: 1, TsA: 2, TsB: 3})
	check("default partition")
	check("warm repeat")

	mustAppend("2026-01", ab, storage.IndexEntry{Trace: 2, TsA: 10, TsB: 12})
	mustAppend("2026-01", bc, storage.IndexEntry{Trace: 2, TsA: 12, TsB: 15})
	check("second partition")

	// Append into an already-cached row: the generation bump must evict it.
	mustAppend("", ab, storage.IndexEntry{Trace: 3, TsA: 5, TsB: 6})
	mustAppend("", bc, storage.IndexEntry{Trace: 3, TsA: 6, TsB: 9})
	check("append after cache fill")

	if err := tb.DropPeriod("2026-01"); err != nil {
		t.Fatal(err)
	}
	check("after DropPeriod")

	mustAppend("2026-02", ab, storage.IndexEntry{Trace: 4, TsA: 20, TsB: 21})
	mustAppend("2026-02", bc, storage.IndexEntry{Trace: 4, TsA: 21, TsB: 22})
	check("partition re-added")

	st := tb.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("expected cache hits, stats = %+v", st)
	}
}

// TestConcurrentDetectDuringIngest runs detection concurrently with index
// ingestion and period drops; meaningful under -race. Afterwards the warm
// processor must agree with a cold one.
func TestConcurrentDetectDuringIngest(t *testing.T) {
	tb := storage.NewTables(kvstore.NewMemStore())
	bld, err := index.NewBuilder(tb, index.Options{Policy: model.STNM, Method: pairs.Indexing, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := NewProcessor(tb)
	p := pattern("ABC")
	done := make(chan struct{})

	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := q.Detect(context.Background(), p); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	// Side ingest into rotating periods, plus drops, to churn invalidation.
	wg.Add(1)
	go func() {
		defer wg.Done()
		pair := model.NewPairKey(act('A'), act('B'))
		for i := 0; i < 50; i++ {
			period := "p1"
			if i%2 == 1 {
				period = "p2"
			}
			if err := tb.AppendIndex(period, pair, []storage.IndexEntry{{Trace: model.TraceID(100 + i), TsA: 1, TsB: 2}}); err != nil {
				t.Error(err)
				return
			}
			if i%10 == 9 {
				if err := tb.DropPeriod("p1"); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	rng := rand.New(rand.NewSource(3))
	for batch := 0; batch < 20; batch++ {
		var events []model.Event
		for tr := 1; tr <= 10; tr++ {
			for i := 0; i < 5; i++ {
				events = append(events, model.Event{
					Trace:    model.TraceID(tr),
					Activity: act(byte('A' + rng.Intn(3))),
					TS:       model.Timestamp(batch*5 + i + 1),
				})
			}
		}
		if _, err := bld.Update(events); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	got, err := q.Detect(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if want := coldDetect(t, tb, p); !reflect.DeepEqual(got, want) {
		t.Fatalf("after concurrent ingest: cached %v != cold %v", got, want)
	}
}

// TestExploreParallelMatchesSerial: rankings must be identical at any
// worker count, for every continuation flavor.
func TestExploreParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	traces := randomTraces(rng, 30, 40, 6)
	serial, _ := buildLog(t, model.STNM, traces...)
	serial.SetWorkers(1)
	par, _ := buildLog(t, model.STNM, traces...)
	par.SetWorkers(8)

	p := pattern("AB")
	opts := ExploreOptions{TopK: 3}
	type explore func(*Processor) ([]Proposal, error)
	for name, fn := range map[string]explore{
		"accurate": func(q *Processor) ([]Proposal, error) { return q.ExploreAccurate(context.Background(), p, opts) },
		"hybrid":   func(q *Processor) ([]Proposal, error) { return q.ExploreHybrid(context.Background(), p, opts) },
		"insert-accurate": func(q *Processor) ([]Proposal, error) {
			return q.ExploreInsertAccurate(context.Background(), p, 1, nil, opts)
		},
		"insert-hybrid": func(q *Processor) ([]Proposal, error) {
			return q.ExploreInsertHybrid(context.Background(), p, 1, nil, opts)
		},
	} {
		want, err := fn(serial)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		got, err := fn(par)
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: parallel %v != serial %v", name, got, want)
		}
	}
}

// TestRecheckTopKClampAndDedup drives the shared Hybrid second stage
// directly: out-of-range TopK values are clamped and duplicate candidates
// keep only the exact entry.
func TestRecheckTopKClampAndDedup(t *testing.T) {
	q, _ := buildLog(t, model.STNM, "ABC", "ABC")
	verify := func(event model.ActivityID) (*Proposal, error) {
		return &Proposal{Event: event, Completions: 2, Score: 2, Exact: true}, nil
	}
	fast := []Proposal{
		{Event: act('B'), Completions: 5, Score: 5},
		{Event: act('C'), Completions: 4, Score: 4},
		{Event: act('B'), Completions: 4, Score: 4}, // duplicate of the top entry
	}

	// Negative and zero TopK return the fast ranking untouched.
	for _, k := range []int{-3, 0} {
		got, err := q.recheckTopK(context.Background(), fast, k, verify)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, fast) {
			t.Fatalf("TopK=%d: %v != fast ranking", k, got)
		}
	}

	// TopK beyond len(fast) is clamped; every candidate comes back exact.
	got, err := q.recheckTopK(context.Background(), fast, 100, verify)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range got {
		if !pr.Exact {
			t.Fatalf("TopK=100: non-exact proposal %v", pr)
		}
	}

	// TopK=1 verifies B exactly; the duplicate approximate B is dropped.
	got, err = q.recheckTopK(context.Background(), fast, 1, verify)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("TopK=1: want 2 deduplicated proposals, got %v", got)
	}
	seen := map[model.ActivityID]int{}
	for _, pr := range got {
		seen[pr.Event]++
	}
	if seen[act('B')] != 1 || seen[act('C')] != 1 {
		t.Fatalf("TopK=1: duplicate survived: %v", got)
	}
	for _, pr := range got {
		if pr.Event == act('B') && !pr.Exact {
			t.Fatalf("TopK=1: exact entry lost to the approximate duplicate: %v", got)
		}
	}
}
