package query

import (
	"context"
	"errors"

	"math/rand"
	"reflect"
	"strings"
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
// policies and repeated-activity patterns, over in-memory rows and over
// block runs: the segment leg (buildSegmentLog) freezes half of every trace,
// so chains seed from segment blocks and extend across the segment/memtable
// boundary, and is compared with the reference over plain rows. A hundred
// traces give every pair several blocks.
func TestDetectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	patterns := []string{"AB", "ABC", "ABCD", "AAB", "ABA", "AAAA", "BCA"}
	for _, policy := range []model.Policy{model.STNM, model.SC} {
		for round := 0; round < 5; round++ {
			traces := randomTraces(rng, 100, 30, 4)
			q, _ := buildLog(t, policy, traces...)
			seg := buildSegmentLog(t, policy, traces...)
			for _, ps := range patterns {
				p := pattern(ps)
				want, err := detectReference(q, p)
				if err != nil {
					t.Fatal(err)
				}
				for leg, lq := range map[string]*Processor{"rows": q, "segments": seg} {
					got, err := lq.Detect(context.Background(), p)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s policy=%v pattern=%s: merge join %v != reference %v", leg, policy, ps, got, want)
					}
				}
			}
		}
	}
}

// TestDetectWithinMatchesFilteredReference: join-time window pruning —
// including the segment seed's MinDur block skip — must equal
// post-filtering the unconstrained reference result. The first 80 traces
// space A, B and C four events apart, so the leading segment blocks of AB
// hold only pairs of duration 4 and a window of 2 skips them whole, while
// a window of 4 must keep them.
func TestDetectWithinMatchesFilteredReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var traces []string
	for i := 0; i < 80; i++ {
		traces = append(traces, strings.Repeat("ADDDBDDDCDDD", 3))
	}
	traces = append(traces, randomTraces(rng, 25, 40, 3)...)
	q, _ := buildLog(t, model.STNM, traces...)
	seg := buildSegmentLog(t, model.STNM, traces...)
	for _, ps := range []string{"AB", "ABC"} {
		p := pattern(ps)
		all, err := detectReference(q, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, within := range []int64{1, 2, 4, 5, 8, 10, 100} {
			var want []Match
			for _, m := range all {
				if m.Duration() <= within {
					want = append(want, m)
				}
			}
			for leg, lq := range map[string]*Processor{"rows": q, "segments": seg} {
				got, err := lq.DetectWithin(context.Background(), p, within)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s within=%d: %v != %v", leg, ps, within, got, want)
				}
			}
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

// TestDetectReadsEachBlockOnce: one join reads each block of a pair at most
// once, so a detection over a frozen store decodes (or takes from the
// cache) at most Σ Postings.Total() rows over the pattern's pairs, however
// many chains probe a block.
func TestDetectReadsEachBlockOnce(t *testing.T) {
	tb, err := storage.OpenTables(kvstore.NewMemStore(), storage.Options{SegmentDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	bld, err := index.NewBuilder(tb, index.Options{Policy: model.STNM, Method: pairs.Indexing, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bld.Update(benchEvents(1000, 100, 16)); err != nil {
		t.Fatal(err)
	}
	if err := tb.FreezePostings(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := NewProcessor(tb)
	p := model.Pattern{0, 1, 2, 3}
	var bound int64
	for i := 0; i+1 < len(p); i++ {
		po, err := tb.GetPostings(ctx, model.NewPairKey(p[i], p[i+1]))
		if err != nil {
			t.Fatal(err)
		}
		bound += int64(po.Total())
	}
	for _, within := range []int64{0, 30} {
		for round := 0; round < 2; round++ { // cold, then from the cache
			before := tb.ReadRows()
			ms, err := q.DetectWithin(ctx, p, within)
			if err != nil || len(ms) == 0 {
				t.Fatalf("within %d: %d matches (%v)", within, len(ms), err)
			}
			if read := tb.ReadRows() - before; read > bound {
				t.Fatalf("within %d round %d: read %d rows, the pattern's pairs hold %d", within, round, read, bound)
			}
		}
	}
}

// TestDetectChainsOfOneEventAcrossRuns: many chains ending at one event
// share one read of the frontier, across every run of a pair — a segment,
// a memtable tail and a period partition holding both — and continuation
// runs long enough to cross block boundaries. Detect and DetectWithin must
// equal the map-join reference; under a row budget the answer is a subset
// of the full one, the same on every run. Indexed logs never hold such
// chains (an event ends at most one entry per pair), so the rows are
// written directly, as TestContinuationMergesChainsOfOneEvent writes them.
func TestDetectChainsOfOneEventAcrossRuns(t *testing.T) {
	tb, err := storage.OpenTables(kvstore.NewMemStore(), storage.Options{SegmentDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	tb.SetCacheBudget(16 << 10)
	ab := model.NewPairKey(act('A'), act('B'))
	bc := model.NewPairKey(act('B'), act('C'))
	cd := model.NewPairKey(act('C'), act('D'))
	// write appends, per trace, n copies of (tsA, tsB) for every tsB in
	// [from, to) to the pair's row in period.
	write := func(period string, pair model.PairKey, n int, tsA, from, to model.Timestamp) {
		t.Helper()
		var rows []storage.IndexEntry
		for tr := model.TraceID(1); tr <= 4; tr++ {
			for tsB := from; tsB < to; tsB++ {
				for i := 0; i < n; i++ {
					rows = append(rows, storage.IndexEntry{Trace: tr, TsA: tsA, TsB: tsB})
				}
			}
		}
		if err := tb.AppendIndex(period, pair, rows); err != nil {
			t.Fatal(err)
		}
	}
	// A segment with a multi-block (t, 2) run of BC, then the tails.
	write("", ab, 40, 1, 2, 3)
	write("", ab, 3, 3, 4, 5)
	write("p1", ab, 10, 1, 2, 3)
	write("", bc, 1, 2, 5, 135)
	write("p1", bc, 1, 2, 135, 145)
	write("", bc, 1, 4, 9, 10)
	write("", cd, 1, 9, 300, 302)
	write("p1", cd, 1, 20, 300, 301)
	if err := tb.FreezePostings(); err != nil {
		t.Fatal(err)
	}
	write("", ab, 30, 1, 2, 3)
	write("p1", ab, 20, 1, 2, 3)
	write("p1", ab, 2, 3, 4, 5)
	write("", bc, 1, 2, 145, 150)
	write("p1", bc, 1, 2, 150, 155)
	write("p1", bc, 1, 4, 10, 11)
	write("", cd, 1, 10, 300, 301)
	write("p1", cd, 2, 140, 301, 302)
	ctx := context.Background()
	for _, pair := range []model.PairKey{ab, bc} {
		po, err := tb.GetPostings(ctx, pair)
		if err != nil {
			t.Fatal(err)
		}
		if len(po.Runs) != 4 || po.Runs[0].Blocks == nil || po.Runs[0].Blocks.NumBlocks() < 2 {
			t.Fatalf("pair %v: want a multi-block segment run, a tail and a period's two runs, got %d runs", pair, len(po.Runs))
		}
	}
	q := NewProcessor(tb)
	for _, ps := range []string{"ABC", "ABCD"} {
		p := pattern(ps)
		all, err := detectReference(q, p)
		if err != nil || len(all) == 0 {
			t.Fatalf("%s: reference %d matches (%v)", ps, len(all), err)
		}
		truncated := false
		for _, within := range []int64{0, 8, 60, 1000} {
			var want []Match
			for _, m := range all {
				if within == 0 || m.Duration() <= within {
					want = append(want, m)
				}
			}
			got, err := q.DetectWithin(ctx, p, within)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s within %d: %d matches (%v), reference %d", ps, within, len(got), err, len(want))
			}
			for _, rows := range []int64{1, 300, 5000, 20000} {
				bctx := WithLimits(ctx, Limits{MaxRows: rows, Partial: true})
				got, err := q.DetectWithin(bctx, p, within)
				again, err2 := q.DetectWithin(bctx, p, within)
				if !reflect.DeepEqual(got, again) || rowsOfErr(err) != rowsOfErr(err2) {
					t.Fatalf("%s within %d budget %d: two runs differ: %d matches (%v), then %d (%v)", ps, within, rows, len(got), err, len(again), err2)
				}
				var be *BudgetError
				if err != nil && !(errors.As(err, &be) && be.Partial) {
					t.Fatalf("%s within %d budget %d: %v", ps, within, rows, err)
				}
				if !subsequence(got, want) {
					t.Fatalf("%s within %d budget %d: %d matches are not a subset of the %d full ones", ps, within, rows, len(got), len(want))
				}
				truncated = truncated || err != nil && len(got) < len(want)
			}
		}
		if !truncated {
			t.Fatalf("%s: no budget truncated the answer", ps)
		}
	}
}

// subsequence reports whether sub is a subsequence of ms, both in
// sortMatches order: a sub-multiset of the matches.
func subsequence(sub, ms []Match) bool {
	for _, m := range sub {
		for len(ms) > 0 && !reflect.DeepEqual(ms[0], m) {
			ms = ms[1:]
		}
		if len(ms) == 0 {
			return false
		}
		ms = ms[1:]
	}
	return true
}

// TestDetectMatchesDoNotShareTail: the join builds every match's timestamps
// in one flat buffer, so an append to one match must reallocate rather than
// write into the next match's window.
func TestDetectMatchesDoNotShareTail(t *testing.T) {
	q, _ := buildLog(t, model.STNM, "ABC", "ABC", "AABC")
	ms, err := q.Detect(context.Background(), pattern("ABC"))
	if err != nil || len(ms) < 2 {
		t.Fatalf("detect ABC = %v (%v), want several matches", ms, err)
	}
	next := append([]model.Timestamp(nil), ms[1].Timestamps...)
	_ = append(ms[0].Timestamps, -1, -2, -3)
	if !reflect.DeepEqual(ms[1].Timestamps, next) {
		t.Fatalf("appending to match 0 changed match 1: %v, was %v", ms[1].Timestamps, next)
	}
}
