package seqlog

import (
	"context"
	"testing"
)

// TestCompatMatchesOptions: the four legacy entry points of compat.go —
// the ones the benchmark module's exact-answer oracle calls — answer byte
// for byte like Detect, Stats and Explore with the matching options, on the
// ExploreInsert golden corpora.
func TestCompatMatchesOptions(t *testing.T) {
	ctx := context.Background()
	for _, dataset := range goldenDatasets {
		t.Run(dataset, func(t *testing.T) {
			eng, names := goldenEngine(t, dataset)
			same := func(what string, legacy, opts func() (any, error)) {
				t.Helper()
				if l, o := jrun(t, legacy), jrun(t, opts); l != o {
					t.Errorf("%s = %s, options call = %s", what, l, o)
				}
			}
			matched := 0
			for _, a := range names {
				for _, b := range names {
					p := []string{a, b}
					ms, err := eng.Detect(ctx, p, DetectOptions{})
					if err != nil {
						t.Fatal(err)
					}
					matched += len(ms)
					// A window as wide as the first match keeps it and
					// prunes every longer one.
					within := int64(1)
					if len(ms) > 0 {
						within = max(within, ms[0].Times[1]-ms[0].Times[0])
					}
					same("DetectCtx", func() (any, error) { return eng.DetectCtx(ctx, p) },
						func() (any, error) { return eng.Detect(ctx, p, DetectOptions{}) })
					same("DetectWithinCtx", func() (any, error) { return eng.DetectWithinCtx(ctx, p, within) },
						func() (any, error) { return eng.Detect(ctx, p, DetectOptions{Within: within}) })
					same("StatsCtx", func() (any, error) { return eng.StatsCtx(ctx, p) },
						func() (any, error) { return eng.Stats(ctx, p, StatsOptions{}) })
					for _, mode := range []ExploreMode{Accurate, Fast, Hybrid} {
						same("ExploreCtx "+string(mode), func() (any, error) {
							return eng.ExploreCtx(ctx, p, mode, ExploreOptions{TopK: 3})
						}, func() (any, error) {
							return eng.Explore(ctx, p, ExploreOptions{Mode: mode, TopK: 3})
						})
					}
				}
			}
			if matched == 0 {
				t.Fatal("degenerate corpus: no pair of the first activities ever completes")
			}
		})
	}
}
