package seqlog

import "context"

// The four methods below are the query entry points that predate the
// options structs. They stay for the separate benchmark module, whose
// exact-answer oracle calls them; nothing in this module may, and
// scripts/ctxguard.sh holds this file to exactly these four.

// DetectCtx is Detect with the zero DetectOptions: the index join.
func (e *Engine) DetectCtx(ctx context.Context, patternNames []string) ([]Match, error) {
	return e.Detect(ctx, patternNames, DetectOptions{})
}

// DetectWithinCtx is Detect with DetectOptions.Within set to withinMS.
func (e *Engine) DetectWithinCtx(ctx context.Context, patternNames []string, withinMS int64) ([]Match, error) {
	return e.Detect(ctx, patternNames, DetectOptions{Within: withinMS})
}

// StatsCtx is Stats with the zero StatsOptions: consecutive pairs only.
func (e *Engine) StatsCtx(ctx context.Context, patternNames []string) (PatternStats, error) {
	return e.Stats(ctx, patternNames, StatsOptions{})
}

// ExploreCtx is Explore with opts.Mode set to mode.
func (e *Engine) ExploreCtx(ctx context.Context, patternNames []string, mode ExploreMode, opts ExploreOptions) ([]Proposal, error) {
	opts.Mode = mode
	return e.Explore(ctx, patternNames, opts)
}
