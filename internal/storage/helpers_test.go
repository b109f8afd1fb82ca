package storage

import (
	"context"

	"seqlog/internal/model"
)

// Row-content test reads. They go through ScanIndex — the raw per-partition
// scan — and never through GetPostings, so what a test learns about a row's
// content is independent of the join's read path.

// scanIndexRow returns the pair's row of one partition as ScanIndex surfaces
// it: segment entries first, then the memtable tier in append order; nil
// when the pair has no row there.
func scanIndexRow(b Backend, period string, pair model.PairKey) ([]IndexEntry, error) {
	var out []IndexEntry
	err := b.ScanIndex(context.Background(), period, func(k model.PairKey, entries []IndexEntry) error {
		if k == pair {
			out = append(out, entries...)
		}
		return nil
	})
	return out, err
}

// scanIndexRowAll concatenates the pair's rows across the default partition
// and every registered period, in period order.
func scanIndexRowAll(b Backend, pair model.PairKey) ([]IndexEntry, error) {
	periods, err := b.Periods(context.Background())
	if err != nil {
		return nil, err
	}
	var out []IndexEntry
	for _, p := range append([]string{""}, periods...) {
		row, err := scanIndexRow(b, p, pair)
		if err != nil {
			return nil, err
		}
		out = append(out, row...)
	}
	return out, nil
}

// scanIndexRowSorted is scanIndexRow in (Trace, TsA, TsB) order.
func scanIndexRowSorted(b Backend, period string, pair model.PairKey) ([]IndexEntry, error) {
	row, err := scanIndexRow(b, period, pair)
	sortIndexEntries(row)
	return row, err
}

// scanIndexRowAllSorted is scanIndexRowAll in (Trace, TsA, TsB) order.
func scanIndexRowAllSorted(b Backend, pair model.PairKey) ([]IndexEntry, error) {
	row, err := scanIndexRowAll(b, pair)
	sortIndexEntries(row)
	return row, err
}

// postingsMerged flattens GetPostings' runs into one (Trace, TsA, TsB)-sorted
// slice, decoding block runs through the cache-filling Block path — the view
// of a pair the join works from. Cache-behaviour tests read through it.
func postingsMerged(b Backend, pair model.PairKey) ([]IndexEntry, error) {
	po, err := b.GetPostings(context.Background(), pair)
	if err != nil {
		return nil, err
	}
	var out []IndexEntry
	for _, r := range po.Runs {
		if r.Blocks == nil {
			out = append(out, r.Entries...)
			continue
		}
		for i := 0; i < r.Blocks.NumBlocks(); i++ {
			block, err := r.Blocks.Block(i)
			if err != nil {
				return nil, err
			}
			out = append(out, block...)
		}
	}
	sortIndexEntries(out)
	return out, nil
}
