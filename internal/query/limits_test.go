package query

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"seqlog/internal/model"
)

// isSubsequence reports whether every element of sub appears in full, in
// the same relative order — the prefix-consistency contract of partial
// results: a truncated query answers a prefix of the same iteration the
// full query performs, so it can omit late matches but never invent,
// duplicate or reorder them.
func isSubsequence(sub, full []Match) bool {
	j := 0
	for _, m := range sub {
		for j < len(full) && !reflect.DeepEqual(full[j], m) {
			j++
		}
		if j == len(full) {
			return false
		}
		j++
	}
	return true
}

// TestPartialResultsSubsetProperty is the soundness property of partial
// mode: at every budget, over random logs and patterns, the truncated
// answer is an order-preserving subset of the full answer, and the
// accompanying error is a *BudgetError with Partial set. Once the budget
// covers the query, the full answer comes back error-free.
func TestPartialResultsSubsetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	detectors := map[string]func(context.Context, model.Pattern) ([]Match, error){}
	for round := 0; round < 4; round++ {
		traces := randomTraces(rng, 20, 30, 4)
		q, _ := buildLog(t, model.STNM, traces...)
		detectors["Detect"] = q.Detect
		detectors["DetectScan"] = func(ctx context.Context, p model.Pattern) ([]Match, error) {
			return q.DetectScan(ctx, p, model.STNM)
		}
		for _, ps := range []string{"AB", "ABC", "ABA", "ABCD"} {
			p := pattern(ps)
			for name, detect := range detectors {
				full, err := detect(context.Background(), p)
				if err != nil {
					t.Fatalf("%s full: %v", name, err)
				}
				completed := false
				for budget := int64(1); budget < 1<<20; budget *= 4 {
					ctx := WithLimits(context.Background(), Limits{MaxRows: budget, Partial: true})
					got, err := detect(ctx, p)
					if err == nil {
						if !reflect.DeepEqual(got, full) {
							t.Fatalf("%s %s budget=%d: untruncated result %v != full %v", name, ps, budget, got, full)
						}
						completed = true
						break
					}
					var be *BudgetError
					if !errors.As(err, &be) || !be.Partial {
						t.Fatalf("%s %s budget=%d: err = %v, want partial *BudgetError", name, ps, budget, err)
					}
					if !errors.Is(err, ErrBudgetExceeded) {
						t.Fatalf("%s %s budget=%d: %v does not match ErrBudgetExceeded", name, ps, budget, err)
					}
					if !isSubsequence(got, full) {
						t.Fatalf("%s %s budget=%d: partial %v is not an ordered subset of full %v", name, ps, budget, got, full)
					}
				}
				if !completed {
					t.Fatalf("%s %s: no budget up to 2^20 completed the query", name, ps)
				}
			}
		}
	}
}

// TestBudgetWithoutPartialErrors pins the strict flavor: without Partial
// the budget is a hard error carrying the row and elapsed figures, and no
// results accompany it.
func TestBudgetWithoutPartialErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	q, _ := buildLog(t, model.STNM, randomTraces(rng, 20, 30, 3)...)
	ctx := WithLimits(context.Background(), Limits{MaxRows: 1})
	got, err := q.Detect(ctx, pattern("AB"))
	if got != nil {
		t.Fatalf("strict budget returned results: %v", got)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Partial {
		t.Fatalf("err = %v, want strict *BudgetError", err)
	}
	if be.Rows <= 0 {
		t.Fatalf("BudgetError.Rows = %d, want > 0", be.Rows)
	}
}

// TestBudgetStatsChargedPerTableRead: a Stats pair costs its two table reads,
// however many traces ever held the pair.
func TestBudgetStatsChargedPerTableRead(t *testing.T) {
	traces := make([]string, 1000)
	for i := range traces {
		traces[i] = "AB"
	}
	q, _ := buildLog(t, model.STNM, traces...)
	ctx := WithLimits(context.Background(), Limits{MaxRows: 16})
	st, err := q.Stats(ctx, pattern("AB"))
	if err != nil || st.Pairs[0].Completions != 1000 || st.Pairs[0].LastCompletion != 2 {
		t.Fatalf("Stats under MaxRows 16 = %+v, %v", st, err)
	}
}

// TestAggregatesIgnorePartial: stats and exploration rankings cannot be
// soundly truncated, so even when the caller opted into partial mode their
// budget never degrades gracefully — a tripped budget is the strict error.
// (Budget checks are amortized: a query cheap enough to finish inside one
// amortization interval may complete despite nominally exceeding MaxRows,
// which is why ExploreFast below accepts success — but a Partial error is
// wrong at any size.)
func TestAggregatesIgnorePartial(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	q, _ := buildLog(t, model.STNM, randomTraces(rng, 20, 30, 3)...)
	ctx := WithLimits(context.Background(), Limits{MaxRows: 1, Partial: true})
	if _, err := q.Stats(ctx, pattern("AB")); err == nil || Truncated(err) {
		t.Fatalf("Stats under partial budget: err = %v, want strict budget error", err)
	}
	if _, err := q.ExploreFast(ctx, pattern("AB"), ExploreOptions{}); Truncated(err) {
		t.Fatalf("ExploreFast under partial budget returned a partial error: %v", err)
	}
	if _, err := q.ExploreAccurate(ctx, pattern("AB"), ExploreOptions{}); err == nil || Truncated(err) {
		t.Fatalf("ExploreAccurate under partial budget: err = %v, want strict budget error", err)
	}
}

// Truncated mirrors the public helper in the root package (the query
// package cannot import it).
func Truncated(err error) bool {
	var be *BudgetError
	return errors.As(err, &be) && be.Partial
}
