package query

import (
	"context"
	"errors"
	"sort"

	"seqlog/internal/model"
	"seqlog/internal/storage"
)

// DetectPlanned is an optimisation of Algorithm 2 beyond the paper: the
// paper joins pair rows strictly left to right, so a highly selective pair
// late in the pattern cannot prune the work done before it. DetectPlanned
// first fetches every pair row, intersects their trace sets (a trace
// missing from any row cannot contain the pattern), and then runs the same
// left-to-right join restricted to the surviving traces.
//
// The result is exactly Detect's — the ablation experiment
// `seqbench -exp joinorder` measures the speedup, which grows with pattern
// length and with the skew between pair frequencies.
func (q *Processor) DetectPlanned(ctx context.Context, p model.Pattern) ([]Match, error) {
	if len(p) < 2 {
		return nil, ErrShortPattern
	}
	qs := q.begin(ctx)
	pos, err := q.patternPostings(qs.context(), p)
	if err != nil || pos == nil {
		return nil, err
	}

	// Seed the candidate set from the most selective postings (by total
	// entry count — free to read off the skip headers), then shrink it with
	// every other one, cheapest first. Only the seed postings decode; the
	// membership probes against the rest binary-search plain runs and skip
	// headers, never touching block payloads. Block-run probes are an
	// over-approximation (a trace inside a block's id range may be absent),
	// which is sound: candidates only restrict seeding, the join itself is
	// exact.
	order := make([]int, len(pos))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && pos[order[j]].Total() < pos[order[j-1]].Total(); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	// Cancellation/budget checks run per planning round (seed decode, then
	// one membership sweep per remaining postings). A truncation in partial
	// mode jumps straight to the join: an incomplete candidate set only
	// restricts seeding further, so the partial result stays a subset of the
	// full answer.
	candidates := make(map[model.TraceID]bool)
	for _, r := range pos[order[0]].Runs {
		entries := r.Entries
		if r.Blocks != nil {
			if entries, err = r.Blocks.All(); err != nil {
				return nil, err
			}
		}
		for i := range entries {
			candidates[entries[i].Trace] = true
		}
	}
	err = qs.step(len(candidates))
	for _, ri := range order[1:] {
		if err != nil {
			break
		}
		if len(candidates) == 0 {
			return nil, nil
		}
		present := make(map[model.TraceID]bool, len(candidates))
		for id := range candidates {
			if postingsMayContain(pos[ri], id) {
				present[id] = true
			}
		}
		candidates = present
		err = qs.step(len(candidates))
	}
	if err != nil && !errors.Is(err, errTruncated) {
		return nil, err
	}
	if len(candidates) == 0 {
		return nil, nil
	}

	// The standard merge join, seeded with the surviving traces only.
	ms, err := joinPostings(qs, pos, 0, candidates)
	if err != nil {
		return nil, err
	}
	return ms, qs.truncErr()
}

// postingsMayContain reports whether the pair's postings could hold entries
// of the trace: exact binary search on plain runs, skip-header range check
// on block runs (no payload decode). False negatives are impossible; false
// positives only cost the join a fruitless seed probe.
func postingsMayContain(po storage.Postings, id model.TraceID) bool {
	for _, r := range po.Runs {
		if r.Blocks == nil {
			row := r.Entries
			lo := sort.Search(len(row), func(j int) bool { return row[j].Trace >= id })
			if lo < len(row) && row[lo].Trace == id {
				return true
			}
			continue
		}
		b := r.Blocks
		nb := b.NumBlocks()
		bi := sort.Search(nb, func(j int) bool { return b.Meta(j).LastTrace >= id })
		if bi < nb && b.Meta(bi).FirstTrace <= id {
			return true
		}
	}
	return false
}
