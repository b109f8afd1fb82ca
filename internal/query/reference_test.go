package query

import (
	"context"

	"seqlog/internal/model"
	"seqlog/internal/parallel"
	"seqlog/internal/storage"
)

// scanIndexAll reads the pair's rows across the default partition and every
// period through ScanIndex — the raw scan — so the oracle shares no read
// method with join.go, which reads only through GetPostings.
func scanIndexAll(b storage.Backend, pair model.PairKey) ([]storage.IndexEntry, error) {
	ctx := context.Background()
	periods, err := b.Periods(ctx)
	if err != nil {
		return nil, err
	}
	var out []storage.IndexEntry
	for _, p := range append([]string{""}, periods...) {
		err := b.ScanIndex(ctx, p, func(k model.PairKey, entries []storage.IndexEntry) error {
			if k == pair {
				out = append(out, entries...)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// detectReference is the pre-overhaul Detect, kept verbatim as the oracle
// the merge join of join.go is asserted against: the paper's Algorithm 2
// with nested map[trace]map[tsA][]tsB grouping rebuilt on every step, full
// chain copies per extension, and uncached raw row reads (scanIndexAll).
func detectReference(q *Processor, p model.Pattern) ([]Match, error) {
	if len(p) < 2 {
		return nil, ErrShortPattern
	}
	first, err := scanIndexAll(q.tables, model.NewPairKey(p[0], p[1]))
	if err != nil {
		return nil, err
	}
	partials := make(map[model.TraceID][][]model.Timestamp)
	for _, e := range first {
		partials[e.Trace] = append(partials[e.Trace], []model.Timestamp{e.TsA, e.TsB})
	}
	for i := 1; i+1 < len(p); i++ {
		if len(partials) == 0 {
			return nil, nil
		}
		entries, err := scanIndexAll(q.tables, model.NewPairKey(p[i], p[i+1]))
		if err != nil {
			return nil, err
		}
		byTrace := make(map[model.TraceID]map[model.Timestamp][]model.Timestamp)
		for _, e := range entries {
			m := byTrace[e.Trace]
			if m == nil {
				m = make(map[model.Timestamp][]model.Timestamp)
				byTrace[e.Trace] = m
			}
			m[e.TsA] = append(m[e.TsA], e.TsB)
		}
		next := make(map[model.TraceID][][]model.Timestamp, len(partials))
		for trace, chains := range partials {
			starts := byTrace[trace]
			if starts == nil {
				continue
			}
			var extended [][]model.Timestamp
			for _, chain := range chains {
				last := chain[len(chain)-1]
				for _, tsB := range starts[last] {
					ext := make([]model.Timestamp, len(chain)+1)
					copy(ext, chain)
					ext[len(chain)] = tsB
					extended = append(extended, ext)
				}
			}
			if len(extended) > 0 {
				next[trace] = extended
			}
		}
		partials = next
	}

	var out []Match
	for trace, chains := range partials {
		for _, chain := range chains {
			out = append(out, Match{Trace: trace, Timestamps: chain})
		}
	}
	sortMatches(out)
	return out, nil
}

// verifyReference is the per-candidate body of Algorithms 3 and 5 as the
// paper writes it, kept as the oracle of continuation.go: a full detection
// of the pattern with cand inserted at pos (pos = len(p) appends), scored by
// the gap around cand. A nil proposal means MaxAvgGap dropped it.
func verifyReference(ctx context.Context, q *Processor, p model.Pattern, pos int, cand model.ActivityID, opts ExploreOptions) (*Proposal, error) {
	matches, err := q.Detect(ctx, insertAt(p, pos, cand))
	if err != nil {
		return nil, err
	}
	var sum int64
	for _, m := range matches {
		sum += gapAround(m, pos)
	}
	var avg float64
	if len(matches) > 0 {
		avg = float64(sum) / float64(len(matches))
	}
	if opts.MaxAvgGap > 0 && avg > opts.MaxAvgGap {
		return nil, nil
	}
	return &Proposal{
		Event:       cand,
		Completions: int64(len(matches)),
		AvgDuration: avg,
		Score:       score(int64(len(matches)), avg),
		Exact:       true,
	}, nil
}

// exploreReference is ExploreInsertAccurate (ExploreAccurate at pos =
// len(p)) with one detection per candidate.
func exploreReference(ctx context.Context, q *Processor, p model.Pattern, pos int, alphabet []model.ActivityID, opts ExploreOptions) ([]Proposal, error) {
	ctx = noPartial(ctx)
	candidates, err := q.insertCandidates(ctx, p, pos, alphabet)
	if err != nil {
		return nil, err
	}
	props, err := parallel.MapCtx(ctx, candidates, q.workers, func(c gapCandidate) (*Proposal, error) {
		return verifyReference(ctx, q, p, pos, c.event, opts)
	})
	if err != nil {
		return nil, err
	}
	out := collectProposals(props)
	sortProposals(out)
	return out, nil
}

// hybridReference is ExploreInsertHybrid (ExploreHybrid at pos = len(p))
// re-checking its top K with one detection per candidate.
func hybridReference(ctx context.Context, q *Processor, p model.Pattern, pos int, alphabet []model.ActivityID, opts ExploreOptions) ([]Proposal, error) {
	ctx = noPartial(ctx)
	var fast []Proposal
	var err error
	if pos == len(p) {
		fast, err = q.ExploreFast(ctx, p, opts)
	} else {
		fast, err = q.ExploreInsertFast(ctx, p, pos, alphabet, opts)
	}
	if err != nil {
		return nil, err
	}
	return q.recheckTopK(ctx, fast, opts.TopK, func(event model.ActivityID) (*Proposal, error) {
		return verifyReference(ctx, q, p, pos, event, ExploreOptions{})
	})
}

func insertAt(p model.Pattern, pos int, a model.ActivityID) model.Pattern {
	ext := make(model.Pattern, 0, len(p)+1)
	ext = append(ext, p[:pos]...)
	ext = append(ext, a)
	return append(ext, p[pos:]...)
}

// gapAround returns the time the inserted event (at index pos of the match)
// adds around its neighbours: the span between its preceding and following
// matched events, or the single-sided gap at the pattern edges.
func gapAround(m Match, pos int) int64 {
	switch {
	case pos == 0:
		return int64(m.Timestamps[1] - m.Timestamps[0])
	case pos == len(m.Timestamps)-1:
		return int64(m.Timestamps[pos] - m.Timestamps[pos-1])
	default:
		return int64(m.Timestamps[pos+1] - m.Timestamps[pos-1])
	}
}
