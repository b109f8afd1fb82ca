package query

import (
	"context"
	"errors"
	"sort"

	"seqlog/internal/model"
	"seqlog/internal/parallel"
	"seqlog/internal/storage"
)

// The merge join behind Detect, DetectPlanned and DetectWithin. Algorithm 2
// of the paper joins pair rows hash-style: group every row into nested
// map[trace]map[tsA][]tsB maps, then extend each chain by lookup, copying
// the whole timestamp prefix per extension. Rebuilding those maps on every
// step dominated the query profile, so this implementation works on rows
// pre-sorted by (trace, tsA, tsB) — the order the decoded-postings cache
// hands out, so sorting is paid once per index update, not per query.
// Chains carry only their last timestamp plus a parent pointer; extensions
// binary-search the run of matching entries; full timestamp chains
// materialise once at the end. Results are identical to the map join
// (asserted by TestDetectMatchesReference against the retained reference
// implementation).

// chainNode is one matched event of a partial chain; parent links to the
// previous one (nil at the chain head).
type chainNode struct {
	ts     model.Timestamp
	parent *chainNode
}

// nodeArena block-allocates chainNodes. Blocks are append-only and never
// grow past their capacity, so parent pointers into them stay valid.
type nodeArena struct {
	block []chainNode
}

const arenaBlockSize = 1024

func (a *nodeArena) new(ts model.Timestamp, parent *chainNode) *chainNode {
	if len(a.block) == cap(a.block) {
		a.block = make([]chainNode, 0, arenaBlockSize)
	}
	a.block = append(a.block, chainNode{ts: ts, parent: parent})
	return &a.block[len(a.block)-1]
}

// chain is one live partial match: the trace, the first matched timestamp
// (for window pruning) and the node of the last matched event.
type chain struct {
	trace model.TraceID
	start model.Timestamp
	node  *chainNode
}

// joinPostings joins one Postings (a set of disjoint sorted runs) per
// consecutive pattern pair into full matches. within > 0 prunes chains
// spanning more than the window (sound because pair timestamps never
// decrease along a chain); candidates, when non-nil, restricts seeding to
// those traces (the planner's intersection). Returns nil when nothing
// matches.
//
// Runs are consumed independently — a chain seeds from and extends into each
// run in turn — which is what keeps segment runs compressed: a block only
// decodes when its skip header admits it (duration window at the seed, trace
// range everywhere). The final sortMatches is a total order over matches, so
// the result is byte-identical no matter how entries were distributed across
// runs — the invariant the segment differential oracle pins.
func joinPostings(qs *qstate, pos []storage.Postings, within int64, candidates map[model.TraceID]bool) ([]Match, error) {
	chains, err := joinChains(qs, pos, within, candidates)
	if err != nil || len(chains) == 0 {
		return nil, err
	}
	depth := len(pos) + 1
	out := make([]Match, len(chains))
	for i, c := range chains {
		ts := make([]model.Timestamp, depth)
		for k, n := depth-1, c.node; n != nil; k, n = k-1, n.parent {
			ts[k] = n.ts
		}
		out[i] = Match{Trace: c.trace, Timestamps: ts}
	}
	sortMatches(out)
	return out, nil
}

// joinChains is the join of joinPostings without materialisation: the chains
// alive after the last pair, in join order.
func joinChains(qs *qstate, pos []storage.Postings, within int64, candidates map[model.TraceID]bool) ([]chain, error) {
	var arena nodeArena
	var candMin, candMax model.TraceID
	if candidates != nil {
		if len(candidates) == 0 {
			return nil, nil
		}
		first := true
		for id := range candidates {
			if first || id < candMin {
				candMin = id
			}
			if first || id > candMax {
				candMax = id
			}
			first = false
		}
	}
	chains := make([]chain, 0, pos[0].Total())
	// seed examines entries in checkEvery-sized stripes so the cooperative
	// checks fire inside large plain runs, not only between them; block runs
	// hold ≤128 entries, so one step per block already amortizes. A
	// truncation (partial mode) surfaces as errTruncated and simply stops
	// seeding: fewer seeds can only shrink the result, never corrupt it.
	seed := func(entries []storage.IndexEntry) error {
		for len(entries) > 0 {
			n := len(entries)
			if qs != nil && n > checkEvery {
				n = checkEvery
			}
			for i := range entries[:n] {
				e := &entries[i]
				if candidates != nil && !candidates[e.Trace] {
					continue
				}
				if within > 0 && int64(e.TsB-e.TsA) > within {
					continue
				}
				chains = append(chains, chain{
					trace: e.Trace,
					start: e.TsA,
					node:  arena.new(e.TsB, arena.new(e.TsA, nil)),
				})
			}
			entries = entries[n:]
			if err := qs.step(n); err != nil {
				return err
			}
		}
		return nil
	}
seeding:
	for _, r := range pos[0].Runs {
		if r.Blocks == nil {
			if err := seed(r.Entries); err != nil {
				if errors.Is(err, errTruncated) {
					break seeding
				}
				return nil, err
			}
			continue
		}
		for bi, nb := 0, r.Blocks.NumBlocks(); bi < nb; bi++ {
			m := r.Blocks.Meta(bi)
			// Skip-entry pruning without decoding: every entry in the block
			// outlasts the window, or the whole block lies outside the
			// candidate trace range.
			if within > 0 && m.MinDur > within {
				continue
			}
			if candidates != nil && (m.LastTrace < candMin || m.FirstTrace > candMax) {
				continue
			}
			blk, err := r.Blocks.Block(bi)
			if err != nil {
				return nil, err
			}
			if err := seed(blk); err != nil {
				if errors.Is(err, errTruncated) {
					break seeding
				}
				return nil, err
			}
		}
	}
	for _, po := range pos[1:] {
		if len(chains) == 0 {
			return nil, nil
		}
		next := make([]chain, 0, len(chains))
		for _, c := range chains {
			for _, r := range po.Runs {
				var err error
				if next, err = extendRun(r, c, within, &arena, next); err != nil {
					return nil, err
				}
			}
			// One work unit per chain probe. On truncation the chains not
			// yet probed for this pair are dropped — they were partial
			// matches, so dropping them keeps every surviving chain a
			// genuine one; the remaining pairs then extend the (small)
			// surviving set to full matches.
			if err := qs.step(1); err != nil {
				if errors.Is(err, errTruncated) {
					break
				}
				return nil, err
			}
		}
		chains = next
	}
	return chains, nil
}

// extendRun appends to next one extended chain per entry of r continuing c:
// same trace, tsA equal to the chain's last timestamp. Plain runs
// binary-search the slice; block runs binary-search the skip headers first
// and decode only the block(s) the continuation run can live in.
func extendRun(r storage.PostingsRun, c chain, within int64, arena *nodeArena, next []chain) ([]chain, error) {
	ts := c.node.ts
	scan := func(row []storage.IndexEntry) bool {
		lo := sort.Search(len(row), func(j int) bool {
			if row[j].Trace != c.trace {
				return row[j].Trace > c.trace
			}
			return row[j].TsA >= ts
		})
		j := lo
		for ; j < len(row) && row[j].Trace == c.trace && row[j].TsA == ts; j++ {
			if within > 0 && int64(row[j].TsB-c.start) > within {
				continue
			}
			next = append(next, chain{trace: c.trace, start: c.start, node: arena.new(row[j].TsB, c.node)})
		}
		return j == len(row) // the matching run reached the end of the slice
	}
	if r.Blocks == nil {
		scan(r.Entries)
		return next, nil
	}
	b := r.Blocks
	nb := b.NumBlocks()
	// First block whose last entry is >= (trace, ts): blocks before it end
	// too early to hold the continuation run.
	bi := sort.Search(nb, func(j int) bool {
		m := b.Meta(j)
		if m.LastTrace != c.trace {
			return m.LastTrace > c.trace
		}
		return m.LastTsA >= ts
	})
	for ; bi < nb; bi++ {
		m := b.Meta(bi)
		if m.FirstTrace > c.trace || (m.FirstTrace == c.trace && m.FirstTsA > ts) {
			break // the block starts past the run: no match here or later
		}
		blk, err := b.Block(bi)
		if err != nil {
			return nil, err
		}
		// Only a run still open at the block's end can continue into the
		// next block.
		if !scan(blk) || m.LastTrace != c.trace || m.LastTsA != ts {
			break
		}
	}
	return next, nil
}

// patternPostings fetches the postings of every consecutive pattern pair. A
// nil result (with nil error) means some pair never occurs, so the pattern
// has no completions.
//
// On a sharded backend the pattern's pairs live on different shards, so the
// point reads scatter concurrently across the owning shards before the
// join; postings land in pattern order either way, so the join input — and
// the result — is independent of the fan-out. Single-store backends keep the
// serial loop: its early exit on an absent pair is worth more there than
// goroutine overlap on one cache.
func (q *Processor) patternPostings(ctx context.Context, p model.Pattern) ([]storage.Postings, error) {
	pos := make([]storage.Postings, max(len(p)-1, 0))
	if q.tables.NumShards() > 1 && len(pos) > 1 {
		err := parallel.ForEachCtx(ctx, len(pos), q.workers, func(i int) error {
			po, err := q.tables.GetPostings(ctx, model.NewPairKey(p[i], p[i+1]))
			pos[i] = po
			return err
		})
		if err != nil {
			return nil, err
		}
		for _, po := range pos {
			if po.Empty() {
				return nil, nil
			}
		}
		return pos, nil
	}
	for i := 0; i+1 < len(p); i++ {
		po, err := q.tables.GetPostings(ctx, model.NewPairKey(p[i], p[i+1]))
		if err != nil {
			return nil, err
		}
		if po.Empty() {
			return nil, nil
		}
		pos[i] = po
	}
	return pos, nil
}
