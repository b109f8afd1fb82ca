package query

import (
	"context"

	"math"
	"reflect"
	"testing"

	"seqlog/internal/model"
)

// TestStatsEmptyTable pins the zero-input contract of the Statistics query:
// a pattern over an empty (or never-matching) index yields all-zero, finite
// figures — no NaN averages, no negative bounds, no error.
func TestStatsEmptyTable(t *testing.T) {
	cases := []struct {
		name   string
		policy model.Policy
		traces []string
		p      model.Pattern
	}{
		{"empty-index-sc", model.SC, nil, pattern("AB")},
		{"empty-index-stnm", model.STNM, nil, pattern("AB")},
		{"empty-index-long", model.STNM, nil, pattern("ABCD")},
		{"unmatched-pair", model.STNM, []string{"AAAA"}, pattern("XY")},
		{"half-matched", model.STNM, []string{"AB"}, pattern("ABZ")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, _ := buildLog(t, tc.policy, tc.traces...)
			for name, stats := range map[string]func(context.Context, model.Pattern) (PatternStats, error){
				"Stats":         q.Stats,
				"StatsAllPairs": q.StatsAllPairs,
			} {
				st, err := stats(context.Background(), tc.p)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if st.MaxCompletions != 0 {
					t.Fatalf("%s: MaxCompletions = %d, want 0", name, st.MaxCompletions)
				}
				// A half-matched pattern still sums the matched pairs'
				// averages into the estimate; it must just stay finite.
				if math.IsNaN(st.EstimatedDuration) || st.EstimatedDuration < 0 {
					t.Fatalf("%s: EstimatedDuration = %v", name, st.EstimatedDuration)
				}
				if tc.traces == nil && st.EstimatedDuration != 0 {
					t.Fatalf("%s: EstimatedDuration = %v on an empty index, want 0", name, st.EstimatedDuration)
				}
				if len(st.Pairs) == 0 {
					t.Fatalf("%s: pair breakdown missing (want one all-zero row per pair)", name)
				}
				for _, ps := range st.Pairs {
					if ps.Completions != 0 && tc.traces == nil {
						t.Fatalf("%s: pair %v has %d completions on an empty index", name, ps, ps.Completions)
					}
					if math.IsNaN(ps.AvgDuration) || ps.AvgDuration < 0 {
						t.Fatalf("%s: pair %v AvgDuration = %v", name, ps, ps.AvgDuration)
					}
				}
			}
		})
	}
}

// TestDetectEmptyTable: detection over an empty index is a clean no-match.
func TestDetectEmptyTable(t *testing.T) {
	q, _ := buildLog(t, model.STNM)
	ms, err := q.Detect(context.Background(), pattern("AB"))
	if err != nil || len(ms) != 0 {
		t.Fatalf("Detect on empty index = %v, %v", ms, err)
	}
}

// TestExploreHybridTopKEdgeCases: TopK <= 0 means "no exact re-check" — the
// Hybrid strategies must degrade to the Fast ranking, not error or verify
// everything; on an empty index every mode yields an empty ranking.
func TestExploreHybridTopKEdgeCases(t *testing.T) {
	q, _ := buildLog(t, model.STNM, "ABC", "ABD", "ABC")
	fast, err := q.ExploreFast(context.Background(), pattern("AB"), ExploreOptions{})
	if err != nil || len(fast) == 0 {
		t.Fatalf("fast ranking = %v, %v", fast, err)
	}
	for _, topK := range []int{0, -1, -100} {
		got, err := q.ExploreHybrid(context.Background(), pattern("AB"), ExploreOptions{TopK: topK})
		if err != nil {
			t.Fatalf("TopK=%d: %v", topK, err)
		}
		if !reflect.DeepEqual(got, fast) {
			t.Fatalf("TopK=%d: hybrid = %v, want the fast ranking %v", topK, got, fast)
		}
		ins, err := q.ExploreInsertHybrid(context.Background(), pattern("AB"), len(pattern("AB")), nil, ExploreOptions{TopK: topK})
		if err != nil {
			t.Fatalf("insert TopK=%d: %v", topK, err)
		}
		for _, pr := range ins {
			if pr.Exact {
				t.Fatalf("insert TopK=%d verified %v exactly, want fast-only", topK, pr)
			}
		}
	}
	// TopK beyond the candidate count clamps, it does not over-verify.
	got, err := q.ExploreHybrid(context.Background(), pattern("AB"), ExploreOptions{TopK: 1 << 20})
	if err != nil {
		t.Fatalf("huge TopK: %v", err)
	}
	for _, pr := range got {
		if !pr.Exact {
			t.Fatalf("huge TopK left %v unverified", pr)
		}
	}

	// Empty index: every strategy returns an empty, error-free ranking.
	eq, _ := buildLog(t, model.STNM)
	for _, mode := range []func(context.Context, model.Pattern, ExploreOptions) ([]Proposal, error){
		eq.ExploreFast, eq.ExploreAccurate, eq.ExploreHybrid,
	} {
		props, err := mode(context.Background(), pattern("AB"), ExploreOptions{TopK: 3})
		if err != nil || len(props) != 0 {
			t.Fatalf("explore on empty index = %v, %v", props, err)
		}
	}
}
