package query

import (
	"cmp"
	"context"
	"errors"
	"slices"
	"sort"

	"seqlog/internal/model"
	"seqlog/internal/parallel"
	"seqlog/internal/storage"
)

// The merge join behind Detect and DetectWithin. Algorithm 2 of the paper
// joins pair rows hash-style: group every row into nested
// map[trace]map[tsA][]tsB maps, then extend each chain by lookup, copying
// the whole timestamp prefix per extension. Rebuilding those maps on every
// step dominated the query profile, so this implementation works on rows
// pre-sorted by (trace, tsA, tsB) — the order the decoded-postings cache
// hands out, so sorting is paid once per index update, not per query.
// Chains carry only their last timestamp plus a parent pointer, and full
// timestamp chains materialise once at the end. A pair with a block run is
// a merge: the frontier goes in (trace, last timestamp) order and one
// forward cursor per run reads each block at most once per query, the chains
// ending at one event sharing one read; a pair of plain runs only is
// binary-searched per chain. Results are identical to the map join
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
// decrease along a chain). Returns nil when nothing matches.
//
// Runs stay separate, which keeps segment runs compressed: a block only
// decodes when its skip header admits it (duration window at the seed, key
// range on extension). The final sortMatches is a total order, so the result
// is byte-identical however entries were spread across runs.
func joinPostings(qs *qstate, pos []storage.Postings, within int64) ([]Match, error) {
	chains, err := joinChains(qs, pos, within)
	if err != nil || len(chains) == 0 {
		return nil, err
	}
	// Every match's timestamps live in one flat buffer; each Match holds a
	// cap-limited window of it, so an append to one never reaches the next.
	depth := len(pos) + 1
	out := make([]Match, len(chains))
	flat := make([]model.Timestamp, len(chains)*depth)
	for i, c := range chains {
		ts := flat[i*depth : (i+1)*depth : (i+1)*depth]
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
func joinChains(qs *qstate, pos []storage.Postings, within int64) ([]chain, error) {
	var arena nodeArena
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
			// outlasts the window.
			if within > 0 && m.MinDur > within {
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
	var curs []cursor
	var tsBs []model.Timestamp
	for _, po := range pos[1:] {
		if len(chains) == 0 {
			return nil, nil
		}
		// With a block run the frontier goes in key order, so one forward
		// cursor per run decodes each block at most once. Plain runs alone
		// skip the sort (it costs more than it saves) and search per chain.
		forward := slices.ContainsFunc(po.Runs, func(r storage.PostingsRun) bool { return r.Blocks != nil })
		if forward {
			if !slices.IsSortedFunc(chains, chainOrder) {
				slices.SortFunc(chains, chainOrder)
			}
			curs = openCursors(po)
		}
		next := make([]chain, 0, len(chains))
	extending:
		for i, j := 0, 0; i < len(chains); i = j {
			trace, ts := chains[i].trace, chains[i].node.ts
			j = i + 1
			if forward { // the chains [i, j) end at one event and share its read
				for j < len(chains) && chains[j].trace == trace && chains[j].node.ts == ts {
					j++
				}
				tsBs = tsBs[:0]
				for k := range curs {
					var err error
					if tsBs, err = curs[k].read(tsBs, trace, ts); err != nil {
						return nil, err
					}
				}
			}
			for _, c := range chains[i:j] {
				if forward {
					for _, tsB := range tsBs {
						if within <= 0 || int64(tsB-c.start) <= within {
							next = append(next, chain{trace: trace, start: c.start, node: arena.new(tsB, c.node)})
						}
					}
				} else {
					for k := range po.Runs {
						match, _ := seek(po.Runs[k].Entries, trace, ts)
						for _, e := range match {
							if within <= 0 || int64(e.TsB-c.start) <= within {
								next = append(next, chain{trace: trace, start: c.start, node: arena.new(e.TsB, c.node)})
							}
						}
					}
				}
				// One work unit per chain probe. On truncation the chains not
				// yet probed for this pair are dropped: partial matches, so
				// every surviving chain stays a genuine one.
				if err := qs.step(1); err != nil {
					if errors.Is(err, errTruncated) {
						break extending
					}
					return nil, err
				}
			}
		}
		chains = next
	}
	return chains, nil
}

// chainOrder orders chains by (trace, last timestamp), the cursors' key.
func chainOrder(a, b chain) int {
	return cmp.Or(cmp.Compare(a.trace, b.trace), cmp.Compare(a.node.ts, b.node.ts))
}

// openCursors points one cursor at the start of each run of po.
func openCursors(po storage.Postings) []cursor {
	curs := make([]cursor, len(po.Runs))
	for i, r := range po.Runs {
		curs[i] = cursor{blocks: r.Blocks, bi: -1, blk: r.Entries}
	}
	return curs
}

// cursor reads one sorted postings run forward for ascending keys.
type cursor struct {
	blocks *storage.BlockRun    // nil for a plain run
	bi     int                  // last block considered
	blk    []storage.IndexEntry // unread entries of block bi, or of the plain run
}

// read appends to dst the TsB of every entry keyed (trace, ts) and moves
// past them. A block decodes only when its skip header shows it can hold
// the key, and at most once: keys only ascend.
func (c *cursor) read(dst []model.Timestamp, trace model.TraceID, ts model.Timestamp) ([]model.Timestamp, error) {
	for {
		var match []storage.IndexEntry
		match, c.blk = seek(c.blk, trace, ts)
		for _, e := range match {
			dst = append(dst, e.TsB)
		}
		b := c.blocks
		if len(c.blk) > 0 || b == nil {
			return dst, nil
		}
		// The block is spent: decode the first later one ending at or past
		// the key, unless it starts past the key too.
		from, nb := c.bi+1, b.NumBlocks()
		c.bi = from + sort.Search(nb-from, func(j int) bool {
			m := b.Meta(from + j)
			return m.LastTrace > trace || m.LastTrace == trace && m.LastTsA >= ts
		})
		if c.bi == nb || b.Meta(c.bi).FirstTrace > trace || b.Meta(c.bi).FirstTrace == trace && b.Meta(c.bi).FirstTsA > ts {
			c.bi-- // no entry of the key; the next key searches on from here
			return dst, nil
		}
		var err error
		if c.blk, err = b.Block(c.bi); err != nil {
			return nil, err
		}
	}
}

// seek binary-searches sorted entries for the key (trace, ts) and splits
// off the entries keyed so and the entries after them.
func seek(row []storage.IndexEntry, trace model.TraceID, ts model.Timestamp) (match, rest []storage.IndexEntry) {
	lo := sort.Search(len(row), func(j int) bool {
		return row[j].Trace > trace || row[j].Trace == trace && row[j].TsA >= ts
	})
	hi := lo
	for hi < len(row) && row[hi].Trace == trace && row[hi].TsA == ts {
		hi++
	}
	return row[lo:hi], row[hi:]
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
