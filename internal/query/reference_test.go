package query

import (
	"context"

	"seqlog/internal/model"
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
