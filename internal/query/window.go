package query

import (
	"context"

	"seqlog/internal/model"
)

// DetectWithin is Detect with a time-window constraint (the WITHIN clause of
// CEP languages): only completions whose total span (last minus first
// timestamp) is at most within are returned. Chains that already exceed the
// window are pruned at every join step, so tight windows make the query
// cheaper, not just smaller.
func (q *Processor) DetectWithin(ctx context.Context, p model.Pattern, within int64) ([]Match, error) {
	return q.detect(q.begin(ctx), p, within)
}

// StatsAllPairs is the refinement §3.2.1 sketches: "the number of
// completions could be more accurately bounded if all pairs in the pattern
// are considered instead of the consecutive ones only". It reads the Count
// row of every ordered pair (i < j) of the pattern, so the returned
// MaxCompletions is never larger than the consecutive-only bound — at the
// cost of O(p²) instead of O(p) row reads, the accuracy/latency trade-off
// the paper points out.
//
// Soundness caveat (verified by a counter-example in the tests): the
// all-pairs bound caps the number of *non-overlapping* pattern completions
// (what DetectScan counts, and what greedy pair matching maximises — the
// interval-scheduling argument), but NOT the number of Algorithm-2 join
// chains: in trace <A1 B2 A3 C4 B5 C6> the pattern ABC has two chains yet
// the greedy (A,C) count is one. The consecutive-only bound of Stats is
// sound for both, because every chain consumes a distinct occurrence of
// each consecutive pair.
func (q *Processor) StatsAllPairs(ctx context.Context, p model.Pattern) (PatternStats, error) {
	return q.stats(ctx, p, true)
}
