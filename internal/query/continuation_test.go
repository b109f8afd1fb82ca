package query

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"seqlog/internal/index"
	"seqlog/internal/kvstore"
	"seqlog/internal/model"
	"seqlog/internal/pairs"
	"seqlog/internal/storage"
)

// buildSegmentLog indexes the traces like buildLog, but freezes the first
// half of every trace into a segment before indexing the rest, so each pair
// reads as a block-compressed segment run plus a memtable tail, and chains
// cross from one run into the other. A small cache makes the join evict.
func buildSegmentLog(t *testing.T, policy model.Policy, traces ...string) *Processor {
	t.Helper()
	tb, err := storage.OpenTables(kvstore.NewMemStore(), storage.Options{SegmentDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	tb.SetCacheBudget(16 << 10)
	b, err := index.NewBuilder(tb, index.Options{Policy: policy, Method: pairs.Indexing, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var head, tail []model.Event
	for ti, s := range traces {
		for i, c := range []byte(s) {
			e := model.Event{Trace: model.TraceID(ti + 1), Activity: act(c), TS: model.Timestamp(i + 1)}
			if i < len(s)/2 {
				head = append(head, e)
			} else {
				tail = append(tail, e)
			}
		}
	}
	if _, err := b.Update(head); err != nil {
		t.Fatal(err)
	}
	if err := tb.FreezePostings(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Update(tail); err != nil {
		t.Fatal(err)
	}
	return NewProcessor(tb)
}

// TestExploreMatchesReference is the oracle of shared-prefix continuation:
// on random 2–4-activity logs under both policies, plain and segment-backed,
// every continuation flavor answers byte for byte what one detection per
// candidate answers — Accurate, Hybrid at TopK 0, 1, 3 and all, and
// insertion (accurate and hybrid) at every position — for patterns of
// length 1–4, with and without MaxAvgGap, serial and fanned out.
func TestExploreMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	ctx := context.Background()
	for iter := 0; iter < 12; iter++ {
		policy := model.STNM
		if iter%2 == 1 {
			policy = model.SC
		}
		k := 2 + rng.Intn(3)
		alphabet := pattern("ABCD"[:k])
		traces := randomTraces(rng, 20+rng.Intn(20), 30+rng.Intn(40), k)
		q, _ := buildLog(t, policy, traces...)
		if iter%3 != 0 {
			q = buildSegmentLog(t, policy, traces...)
		}
		for pi := 0; pi < 6; pi++ {
			p := make(model.Pattern, 1+rng.Intn(4))
			for i := range p {
				p[i] = alphabet[rng.Intn(k)]
			}
			for _, workers := range []int{1, 8} {
				q.SetWorkers(workers)
				for _, gap := range []float64{0, 1.5} {
					for pos := 0; pos <= len(p); pos++ {
						name := fmt.Sprintf("iter %d %v %v pos %d workers %d MaxAvgGap %v", iter, policy, p, pos, workers, gap)
						opts := ExploreOptions{MaxAvgGap: gap}
						want, err := exploreReference(ctx, q, p, pos, alphabet, opts)
						if err != nil {
							t.Fatal(err)
						}
						got, err := q.ExploreInsertAccurate(ctx, p, pos, alphabet, opts)
						if err != nil || !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: insert accurate %v (%v), reference %v", name, got, err, want)
						}
						if pos == len(p) {
							if got, err = q.ExploreAccurate(ctx, p, opts); err != nil || !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: accurate %v (%v), reference %v", name, got, err, want)
							}
						}
						for _, topK := range []int{0, 1, 3, 1000} {
							opts.TopK = topK
							want, err := hybridReference(ctx, q, p, pos, alphabet, opts)
							if err != nil {
								t.Fatal(err)
							}
							got, err := q.ExploreInsertHybrid(ctx, p, pos, alphabet, opts)
							if pos == len(p) {
								got, err = q.ExploreHybrid(ctx, p, opts)
							}
							if err != nil || !reflect.DeepEqual(got, want) {
								t.Fatalf("%s TopK %d: hybrid %v (%v), reference %v", name, topK, got, err, want)
							}
						}
					}
				}
			}
		}
	}
}

// rowsOf returns the rows one detection of p charges.
func rowsOf(t *testing.T, q *Processor, p model.Pattern) int64 {
	t.Helper()
	qs := q.begin(WithLimits(context.Background(), Limits{MaxRows: 1 << 62}))
	if _, err := q.detect(qs, p, 0); err != nil {
		t.Fatal(err)
	}
	return qs.rows
}

// cancelOnPair cancels the query when the join fetches one pair's postings.
type cancelOnPair struct {
	storage.Backend
	pair   model.PairKey
	cancel context.CancelFunc
}

func (b cancelOnPair) GetPostings(ctx context.Context, pair model.PairKey) (storage.Postings, error) {
	if pair == b.pair {
		b.cancel()
	}
	return b.Backend.GetPostings(ctx, pair)
}

// TestExploreBudgetPerCandidate pins the budget contract of shared-prefix
// continuation: the row budget applies to each candidate's verification,
// charged what one detection of the extended pattern charges. A budget the
// prefix join alone exceeds is a strict error even in partial mode; a budget
// above the largest per-candidate charge succeeds although the candidates
// together charge far more; at every budget the outcome and the rows
// reported equal the per-candidate reference's; and a cancellation landing
// while a candidate walks the frontier returns the context's error.
func TestExploreBudgetPerCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	q, tb := buildLog(t, model.STNM, randomTraces(rng, 1000, 60, 3)...)
	q.SetWorkers(1)
	p := pattern("AB")
	ctx := context.Background()
	full, err := q.ExploreAccurate(ctx, p, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prefix := rowsOf(t, q, p)
	var largest, total int64
	for _, pr := range full {
		rows := rowsOf(t, q, insertAt(p, len(p), pr.Event))
		largest, total = max(largest, rows), total+rows
	}
	if prefix < 2*checkEvery || total < largest+2*checkEvery {
		t.Fatalf("log too small to tell the budgets apart: prefix %d, largest %d, total %d rows", prefix, largest, total)
	}

	budget := func(rows int64) context.Context {
		return WithLimits(ctx, Limits{MaxRows: rows, Partial: true})
	}
	_, err = q.ExploreAccurate(budget(prefix/2), p, ExploreOptions{})
	var be *BudgetError
	if !errors.As(err, &be) || be.Partial || be.Rows > prefix {
		t.Fatalf("budget %d below the prefix join's %d rows: err = %v, want a strict budget error inside the join", prefix/2, prefix, err)
	}
	if got, err := q.ExploreAccurate(budget(largest+1), p, ExploreOptions{}); err != nil || !reflect.DeepEqual(got, full) {
		t.Fatalf("budget %d above every candidate's charge: %v, %v", largest+1, got, err)
	}
	for rows := int64(1); rows <= 2*largest; rows = rows*3/2 + 1 {
		_, err := q.ExploreAccurate(budget(rows), p, ExploreOptions{})
		_, want := exploreReference(budget(rows), q, p, len(p), nil, ExploreOptions{})
		if (err == nil) != (want == nil) || rowsOfErr(err) != rowsOfErr(want) {
			t.Fatalf("budget %d: err %v, reference %v", rows, err, want)
		}
	}

	counts, err := tb.GetCounts(ctx, p[len(p)-1])
	if err != nil {
		t.Fatal(err)
	}
	if front, err := q.Detect(ctx, p); err != nil || len(counts) == 0 || len(front) < checkEvery {
		t.Fatalf("frontier of %d chains is too small to poll inside one walk (%v)", len(front), err)
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	last := counts[len(counts)-1].Other
	cq := NewProcessor(cancelOnPair{Backend: tb, pair: model.NewPairKey(p[len(p)-1], last), cancel: cancel})
	cq.SetWorkers(1)
	if _, err := cq.ExploreAccurate(cctx, p, ExploreOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled while the last candidate walks the frontier: err = %v", err)
	}
}

// rowsOfErr returns the rows a *BudgetError reports, -1 for other errors.
func rowsOfErr(err error) int64 {
	var be *BudgetError
	if !errors.As(err, &be) {
		return -1
	}
	return be.Rows
}

// TestContinuationMergesChainsOfOneEvent: chains that end at the same
// (trace, timestamp) extend as one frontier tip, yet the count and the
// budget still see every chain. Indexed logs never hold such chains (an
// event ends at most one entry per pair), so the rows are written directly.
func TestContinuationMergesChainsOfOneEvent(t *testing.T) {
	tb := storage.NewTables(kvstore.NewMemStore())
	dup := make([]storage.IndexEntry, 5000)
	for i := range dup {
		dup[i] = storage.IndexEntry{Trace: 1, TsA: 1, TsB: 2}
	}
	if err := tb.AppendIndex("", model.NewPairKey(act('A'), act('B')), dup); err != nil {
		t.Fatal(err)
	}
	if err := tb.AppendIndex("", model.NewPairKey(act('B'), act('C')), []storage.IndexEntry{{Trace: 1, TsA: 2, TsB: 5}}); err != nil {
		t.Fatal(err)
	}
	q := NewProcessor(tb)
	p := pattern("AB")
	for _, rows := range []int64{0, 6000} {
		ctx := WithLimits(context.Background(), Limits{MaxRows: rows})
		want, werr := verifyReference(ctx, q, p, len(p), act('C'), ExploreOptions{})
		got, err := q.continueAt(ctx, p, len(p), ExploreOptions{}).verify(act('C'))
		if !reflect.DeepEqual(got, want) || rowsOfErr(err) != rowsOfErr(werr) {
			t.Fatalf("budget %d: %v (%v), reference %v (%v)", rows, got, err, want, werr)
		}
		if (rows == 0) != (werr == nil) || rows == 0 && want.Completions != 5000 {
			t.Fatalf("budget %d: reference %v (%v) does not exercise the merge", rows, want, werr)
		}
	}
}

// TestContinuationJoinsPrefixOnlyWhenNeeded: a candidate whose gap pair has
// no postings (its Count entry outlived them) scores zero without joining
// the prefix, as its detection returns before any join, so a budget the
// prefix join alone would exceed still succeeds.
func TestContinuationJoinsPrefixOnlyWhenNeeded(t *testing.T) {
	tb := storage.NewTables(kvstore.NewMemStore())
	ab := make([]storage.IndexEntry, 3*checkEvery)
	for i := range ab {
		ab[i] = storage.IndexEntry{Trace: model.TraceID(i + 1), TsA: 1, TsB: 2}
	}
	if err := tb.AppendIndex("", model.NewPairKey(act('A'), act('B')), ab); err != nil {
		t.Fatal(err)
	}
	if err := tb.MergeCounts(act('B'), []storage.CountEntry{{Other: act('C'), Completions: 1, SumDuration: 1}}); err != nil {
		t.Fatal(err)
	}
	q := NewProcessor(tb)
	ctx := WithLimits(context.Background(), Limits{MaxRows: checkEvery})
	want, werr := exploreReference(ctx, q, pattern("AB"), 2, nil, ExploreOptions{})
	got, err := q.ExploreAccurate(ctx, pattern("AB"), ExploreOptions{})
	if werr != nil || err != nil || len(got) != 1 || !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v (%v), reference %v (%v)", got, err, want, werr)
	}
}
