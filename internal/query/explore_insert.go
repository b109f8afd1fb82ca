package query

import (
	"context"
	"fmt"
	"sort"

	"seqlog/internal/model"
	"seqlog/internal/parallel"
	"seqlog/internal/storage"
)

// This file implements the §7 extension of the paper: "the pattern
// continuation techniques can account for other operation modes, where an
// event is not appended only at the end, but also at arbitrary places in
// the query pattern. Our proposal can be easily extended to cover these
// cases" — here is that extension.
//
// For an insertion position i (0 ≤ i ≤ p), candidates are events that are
// known successors of the pattern event before the gap AND known
// predecessors of the pattern event after the gap. Both come from the Count
// table: the successors are the Count row of the event before the gap, and
// a predecessor x of the event after it is a pair read of (x, p[i]). With
// no event before the gap (i = 0), every activity of the caller's alphabet
// is tried. The accurate flavor verifies each candidate exactly, through the
// shared-prefix continuation of continuation.go.

// ErrBadPosition reports an insertion position outside [0, len(pattern)].
var ErrBadPosition = fmt.Errorf("query: insertion position out of range")

// ExploreInsertAccurate proposes events to insert into the pattern at the
// given position (0 = before the first event, len(p) = append at the end,
// which is ExploreAccurate). Every candidate is verified exactly, so
// completions are exact. alphabet lists the activities a leading insert
// (pos 0) may propose; other positions ignore it.
func (q *Processor) ExploreInsertAccurate(ctx context.Context, p model.Pattern, pos int, alphabet []model.ActivityID, opts ExploreOptions) ([]Proposal, error) {
	ctx = noPartial(ctx)
	candidates, err := q.insertCandidates(ctx, p, pos, alphabet)
	if err != nil {
		return nil, err
	}
	c := q.continueAt(ctx, p, pos, opts)
	props, err := parallel.MapCtx(ctx, candidates, q.workers, func(gc gapCandidate) (*Proposal, error) {
		return c.verify(gc.event)
	})
	if err != nil {
		return nil, err
	}
	out := collectProposals(props)
	sortProposals(out)
	return out, nil
}

// ExploreInsertFast ranks insertion candidates from precomputed statistics
// only: a candidate's completions are bounded by the minimum of the
// neighbouring pair counts and the pattern's own pair-count bound.
func (q *Processor) ExploreInsertFast(ctx context.Context, p model.Pattern, pos int, alphabet []model.ActivityID, opts ExploreOptions) ([]Proposal, error) {
	ctx = noPartial(ctx)
	qs := q.begin(ctx)
	candidates, err := q.insertCandidates(ctx, p, pos, alphabet)
	if err != nil {
		return nil, err
	}
	patternBound, err := q.patternBound(ctx, p)
	if err != nil {
		return nil, err
	}
	var out []Proposal
	for _, c := range candidates {
		if err := qs.step(1); err != nil {
			return nil, err
		}
		bound := patternBound
		var dur float64
		if pos > 0 {
			bound = min(bound, c.before.Completions)
			dur += c.before.AvgDuration()
		}
		if pos < len(p) {
			bound = min(bound, c.after.Completions)
			dur += c.after.AvgDuration()
		}
		if opts.MaxAvgGap > 0 && dur > opts.MaxAvgGap {
			continue
		}
		out = append(out, Proposal{
			Event:       c.event,
			Completions: bound,
			AvgDuration: dur,
			Score:       score(bound, dur),
		})
	}
	sortProposals(out)
	return out, nil
}

// ExploreInsertHybrid mirrors Algorithm 5 for insertions: rank with the
// fast flavor, re-check the topK candidates accurately, return the
// re-ranked union.
func (q *Processor) ExploreInsertHybrid(ctx context.Context, p model.Pattern, pos int, alphabet []model.ActivityID, opts ExploreOptions) ([]Proposal, error) {
	ctx = noPartial(ctx)
	fast, err := q.ExploreInsertFast(ctx, p, pos, alphabet, opts)
	if err != nil {
		return nil, err
	}
	return q.recheckTopK(ctx, fast, opts.TopK, q.continueAt(ctx, p, pos, ExploreOptions{}).verify)
}

// gapCandidate is one event that can fill an insertion gap, with the Count
// entries of the pairs it forms with the pattern events before and after
// the gap (zero at a pattern edge).
type gapCandidate struct {
	event         model.ActivityID
	before, after storage.CountEntry
}

// insertCandidates intersects the successor set of the event before the gap
// (its Count row; the alphabet at pos 0) with the predecessor set of the
// event after the gap (one Count pair read per successor), in ascending
// event order.
func (q *Processor) insertCandidates(ctx context.Context, p model.Pattern, pos int, alphabet []model.ActivityID) ([]gapCandidate, error) {
	if len(p) == 0 {
		return nil, ErrShortPattern
	}
	if pos < 0 || pos > len(p) {
		return nil, ErrBadPosition
	}
	var succ []gapCandidate
	if pos > 0 {
		entries, err := q.tables.GetCounts(ctx, p[pos-1])
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			succ = append(succ, gapCandidate{event: e.Other, before: e})
		}
	} else {
		for _, a := range alphabet {
			succ = append(succ, gapCandidate{event: a})
		}
	}
	out := succ
	if pos < len(p) {
		out = nil
		for _, c := range succ {
			e, ok, err := q.tables.GetPairCount(ctx, c.event, p[pos])
			if err != nil {
				return nil, err
			}
			if ok {
				c.after = e
				out = append(out, c)
			}
		}
	}
	// Deterministic candidate order (score ties break by event id later).
	sort.Slice(out, func(i, j int) bool { return out[i].event < out[j].event })
	return out, nil
}

// patternBound is the Algorithm 4 upper bound: the minimum pair count along
// the pattern.
func (q *Processor) patternBound(ctx context.Context, p model.Pattern) (int64, error) {
	bound := int64(1) << 62
	for i := 0; i+1 < len(p); i++ {
		entry, ok, err := q.tables.GetPairCount(ctx, p[i], p[i+1])
		if err != nil {
			return 0, err
		}
		if !ok {
			return 0, nil
		}
		bound = min(bound, entry.Completions)
	}
	return bound, nil
}
