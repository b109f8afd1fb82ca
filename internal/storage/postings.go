package storage

import (
	"context"
	"fmt"
	"math"

	"seqlog/internal/model"
)

// Postings is the block-aware view of one pair's inverted-index rows: a set
// of sorted runs, each either a plain decoded slice (the memtable tier) or a
// lazily-decoded block run (the segment tier). The merge join consumes runs
// directly — seeding and extending from each run independently — so segment
// blocks are only decoded when a chain actually lands in them; the final
// match sort makes the result independent of run order, which is what lets
// the runs stay separate instead of being merged up front.
type Postings struct {
	Runs []PostingsRun
}

// PostingsRun is one sorted run: exactly one of Entries and Blocks is set.
type PostingsRun struct {
	// Entries is a plain run sorted by (Trace, TsA, TsB). Shared with the
	// postings cache — callers must not modify it.
	Entries []IndexEntry
	// Blocks is a block-compressed run decoded block-at-a-time on demand.
	Blocks *BlockRun
}

// Len returns the number of entries in the run.
func (r PostingsRun) Len() int {
	if r.Blocks != nil {
		return r.Blocks.Total()
	}
	return len(r.Entries)
}

// Total returns the number of entries across all runs.
func (p Postings) Total() int {
	n := 0
	for _, r := range p.Runs {
		n += r.Len()
	}
	return n
}

// Empty reports whether the pair has no postings at all.
func (p Postings) Empty() bool { return p.Total() == 0 }

// LastTsB returns the largest TsB across the runs — a block run's from its
// skip headers, without decoding — or math.MinInt64 when there are none.
func (p Postings) LastTsB() model.Timestamp {
	last := model.Timestamp(math.MinInt64)
	for _, r := range p.Runs {
		for _, e := range r.Entries {
			last = max(last, e.TsB)
		}
		if r.Blocks != nil {
			for _, m := range r.Blocks.metas {
				last = max(last, m.MaxTsB)
			}
		}
	}
	return last
}

// BlockRun exposes one segment run block-at-a-time. Meta returns skip
// headers without decoding; Block decodes (through the postings cache) only
// when called. A BlockRun stays valid after the segment it reads from is
// retired by a freeze: retired segments keep their mappings until the tables
// close, cache keys carry the segment sequence so the run can never hit
// blocks a post-freeze reader cached for the successor segment, and the
// cache-epoch snapshot taken at construction keeps stale decodes from being
// inserted.
type BlockRun struct {
	t      *Tables // nil in unit tests: decode without cache or counters
	period string
	pair   model.PairKey
	seq    uint64 // segment sequence, part of the cache key
	blob   []byte
	metas  []BlockMeta
	total  int
	epoch  uint64
}

func newBlockRun(t *Tables, seg *segment, ri int) *BlockRun {
	row := seg.rows[ri]
	metas := seg.metas[ri]
	// row.entries was validated against the decoded skip headers at open, so
	// the total needs no per-call recount (GetPostings constructs a BlockRun
	// per query — this is on the hot path).
	total := row.entries
	r := &BlockRun{
		t:      t,
		period: row.period,
		pair:   row.pair,
		seq:    seg.seq,
		blob:   seg.blob(row),
		metas:  metas,
		total:  total,
	}
	if t != nil && t.cache != nil {
		r.epoch = t.cache.epoch.Load()
	}
	return r
}

// NumBlocks returns the number of blocks in the run.
func (r *BlockRun) NumBlocks() int { return len(r.metas) }

// Meta returns the skip header of block i, read in place: callers must not
// modify it.
func (r *BlockRun) Meta(i int) *BlockMeta { return &r.metas[i] }

// Total returns the number of entries across all blocks.
func (r *BlockRun) Total() int { return r.total }

// Block returns the decoded entries of block i, served from the postings
// cache when resident. The slice is shared — callers must not modify it. A
// hit touches no skip header; only a decode copies one.
func (r *BlockRun) Block(i int) ([]IndexEntry, error) {
	var c *postingsCache
	if r.t != nil {
		c = r.t.cache
	}
	k := cacheKey{period: r.period, pair: r.pair, seq: r.seq, block: int32(i)}
	if c != nil {
		if entries, ok := c.get(k); ok {
			r.t.rows.Add(int64(len(entries)))
			return entries, nil
		}
	}
	entries, err := r.AppendBlock(make([]IndexEntry, 0, r.metas[i].Count), i)
	if err == nil && c != nil {
		// The key carries the run's segment seq, so a hit can only be this
		// segment's bytes, which no write changes: the block needs no
		// generation. The epoch snapshot is the one taken when the run was
		// handed out: if a freeze switched segments since, the insert is
		// refused so retired-segment blocks don't re-enter the cache.
		c.put(k, 0, r.epoch, entries)
	}
	return entries, err
}

// AppendBlock decodes block i into dst and returns the extended slice,
// bypassing the cache in both directions: nothing is looked up and nothing is
// inserted, so a caller draining many blocks through one reused scratch
// buffer neither churns the cache nor allocates per block. Use Block when the
// decoded entries should stay resident for other readers.
func (r *BlockRun) AppendBlock(dst []IndexEntry, i int) ([]IndexEntry, error) {
	dst, err := decodePostingsBlock(r.blob, r.metas[i], dst)
	if err != nil {
		return nil, fmt.Errorf("%w: block %d of pair %d: %w", ErrCorruptSegment, i, r.pair, err)
	}
	if r.t != nil {
		r.t.rows.Add(int64(r.metas[i].Count))
	}
	return dst, nil
}

// All materialises the whole run into one sorted slice, sized exactly.
// Resident cached blocks are reused, but missing blocks decode directly into
// the result — no per-block intermediate slice, no cache fill. Bulk readers
// (freeze merges, index scans) don't pay the block-granular cache churn;
// the cache fills through Block, the join's block-at-a-time path, where
// re-decoding the same hot block actually repeats.
func (r *BlockRun) All() ([]IndexEntry, error) {
	out := make([]IndexEntry, 0, r.total)
	var c *postingsCache
	if r.t != nil {
		c = r.t.cache
	}
	var err error
	for i, m := range r.metas {
		if c != nil {
			if entries, ok := c.get(cacheKey{period: r.period, pair: r.pair, seq: r.seq, block: int32(i)}); ok {
				out = append(out, entries...)
				continue
			}
		}
		if out, err = decodePostingsBlock(r.blob, m, out); err != nil {
			return nil, fmt.Errorf("%w: block %d of pair %d: %w", ErrCorruptSegment, i, r.pair, err)
		}
	}
	if r.t != nil {
		r.t.rows.Add(int64(len(out)))
	}
	return out, nil
}

// GetPostings returns every sorted run of the pair across the default
// partition and all registered periods: per partition, the segment run (when
// one exists) and the memtable-tier row. Runs are disjoint and individually
// sorted; their concatenation is NOT globally sorted — the join consumes
// each run on its own and sorts matches at the end. It is the Index table's
// only point read.
func (t *Tables) GetPostings(_ context.Context, pair model.PairKey) (Postings, error) {
	return t.postings(pair, true)
}

// postings collects the pair's runs, its memtable rows sorted or not.
func (t *Tables) postings(pair model.PairKey, sorted bool) (Postings, error) {
	periods, err := t.periodsShared()
	if err != nil {
		return Postings{}, err
	}
	t.segMu.RLock()
	defer t.segMu.RUnlock()
	var po Postings
	if err := t.appendRunsLocked(&po, "", pair, sorted); err != nil {
		return Postings{}, err
	}
	for _, p := range periods {
		if err := t.appendRunsLocked(&po, p, pair, sorted); err != nil {
			return Postings{}, err
		}
	}
	return po, nil
}

// appendRunsLocked collects the runs of (period, pair); segMu must be held.
func (t *Tables) appendRunsLocked(po *Postings, period string, pair model.PairKey, sorted bool) error {
	if t.seg != nil && !t.segTomb[period] {
		if i, ok := t.seg.byKey[segKey{period: period, pair: pair}]; ok {
			po.Runs = append(po.Runs, PostingsRun{Blocks: newBlockRun(t, t.seg, i)})
		}
	}
	tail, err := t.getTailSortedLocked(period, pair, sorted)
	if err != nil {
		return err
	}
	if len(tail) > 0 {
		po.Runs = append(po.Runs, PostingsRun{Entries: tail})
	}
	return nil
}
