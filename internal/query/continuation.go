package query

import (
	"cmp"
	"context"
	"slices"
	"sync"

	"seqlog/internal/model"
	"seqlog/internal/storage"
)

// Shared-prefix continuation. Algorithm 3 verifies every candidate x with a
// full detection of ext = p[:pos] + x + p[pos:], and those detections differ
// only in the pairs that touch x. A continuation fetches the pairs before the
// gap (the prefix) and after it (the suffix) once, joins the prefix once into
// a frontier sorted by (trace, last timestamp), and per candidate extends it
// by the gap pairs and the suffix, one forward walk per postings run. Answers
// and row budget are those of one Detect(ext) per candidate (reference_test.go
// keeps that reference): each candidate continues from a copy of the prefix
// join's qstate, so it is charged the same rows at the same poll points.

// tip groups the chains that end at one event of one trace; their futures
// are identical, so they extend together. n counts the chains, gap sums
// their gap so far (see hook).
type tip struct {
	trace  model.TraceID
	ts     model.Timestamp
	n, gap int64
}

// continuation verifies the candidates inserted at pos of p. The shared work
// runs once, for the first candidate whose gap pairs occur, so a Hybrid
// ranking that re-checks nothing fetches nothing.
type continuation struct {
	q      *Processor
	ctx    context.Context
	p      model.Pattern
	pos    int
	lo, hi int // ext indexes whose timestamps bound the scored gap
	opts   ExploreOptions
	once   func() error

	// Set by join.
	base   *qstate            // query state after the prefix join
	front  []tip              // prefix frontier, at ext index pos-1 (pos ≥ 2)
	suffix []storage.Postings // pairs of p[pos:]; nil if a prefix or suffix pair never occurs
}

// continueAt prepares the verification of candidates inserted at pos of p
// (pos = len(p) appends). ctx must already be noPartial.
func (q *Processor) continueAt(ctx context.Context, p model.Pattern, pos int, opts ExploreOptions) *continuation {
	c := &continuation{q: q, ctx: ctx, p: p, pos: pos, lo: max(pos-1, 0), hi: min(pos+1, len(p)), opts: opts}
	c.once = sync.OnceValue(c.join)
	return c
}

// join is the work every candidate shares: fetch the prefix and suffix
// postings, and join the prefix into the frontier.
func (c *continuation) join() error {
	c.base = c.q.begin(c.ctx)
	prefix, err := c.q.patternPostings(c.ctx, c.p[:c.pos])
	if err == nil && prefix != nil {
		c.suffix, err = c.q.patternPostings(c.ctx, c.p[c.pos:])
	}
	if err != nil || c.suffix == nil || c.pos < 2 {
		return err
	}
	chains, err := joinChains(c.base, prefix, 0)
	c.front = c.tips(chains, c.pos-1)
	return err
}

// hook is what reaching ext index i at ts adds to a chain's gap, which is
// ts[hi] - ts[lo].
func (c *continuation) hook(i int, ts model.Timestamp) (v int64) {
	if i == c.hi {
		v = int64(ts)
	}
	if i == c.lo {
		v -= int64(ts)
	}
	return v
}

// tips settles chains ending at ext index i into a frontier.
func (c *continuation) tips(chains []chain, i int) []tip {
	out := make([]tip, len(chains))
	for k, ch := range chains {
		out[k] = tip{trace: ch.trace, ts: ch.node.ts, n: 1, gap: c.hook(i-1, ch.node.parent.ts) + c.hook(i, ch.node.ts)}
	}
	return settle(out)
}

// verify scores candidate x exactly (the per-candidate body of Algorithms 3
// and 5): the completions of ext and their mean gap around x. A nil proposal
// means the MaxAvgGap constraint dropped it.
func (c *continuation) verify(x model.ActivityID) (*Proposal, error) {
	// The gap pairs are the pairs of p[lo:pos] + x + p[pos:hi].
	around := append(append(model.Pattern{}, c.p[c.lo:c.pos]...), x)
	pos, err := c.q.patternPostings(c.ctx, append(around, c.p[c.pos:c.hi]...))
	if err == nil && pos != nil {
		err = c.once()
	}
	var n, gap int64
	if err == nil && pos != nil && c.suffix != nil {
		n, gap, err = c.count(append(pos, c.suffix...))
	}
	if err != nil {
		return nil, err
	}
	var avg float64
	if n > 0 {
		avg = float64(gap) / float64(n)
	}
	if c.opts.MaxAvgGap > 0 && avg > c.opts.MaxAvgGap {
		return nil, nil
	}
	return &Proposal{Event: x, Completions: n, AvgDuration: avg, Score: score(n, avg), Exact: true}, nil
}

// count extends the prefix frontier by pos (gap pairs, then the suffix) and
// returns the completions and their summed gap. Without a prefix (pos < 2)
// the first gap pair seeds the frontier, as it seeds Detect.
func (c *continuation) count(pos []storage.Postings) (n, gap int64, err error) {
	qs, tips, at := c.base, c.front, c.pos-1
	if qs != nil {
		cp := *qs // each candidate continues from the prefix join's state
		qs = &cp
	}
	if c.pos < 2 {
		chains, err := joinChains(qs, pos[:1], 0)
		if err != nil {
			return 0, 0, err
		}
		tips, pos, at = c.tips(chains, 1), pos[1:], 1
	}
	for k, po := range pos {
		at++
		last := k == len(pos)-1
		var next []tip
		err := walk(qs, tips, po, func(t *tip, tsB model.Timestamp) {
			if v := t.gap + t.n*c.hook(at, tsB); last {
				n, gap = n+t.n, gap+v
			} else {
				next = append(next, tip{trace: t.trace, ts: tsB, n: t.n, gap: v})
			}
		})
		if err != nil {
			return 0, 0, err
		}
		tips = settle(next) // empty after the last pair, which sums instead
	}
	for _, t := range tips { // only when the seed was the last pair
		n, gap = n+t.n, gap+t.gap
	}
	return n, gap, nil
}

// settle orders tips by (trace, ts) and merges the tips of one event.
func settle(tips []tip) []tip {
	slices.SortFunc(tips, func(a, b tip) int {
		return cmp.Or(cmp.Compare(a.trace, b.trace), cmp.Compare(a.ts, b.ts))
	})
	out := tips[:0]
	for _, t := range tips {
		if k := len(out) - 1; k >= 0 && out[k].trace == t.trace && out[k].ts == t.ts {
			out[k].n, out[k].gap = out[k].n+t.n, out[k].gap+t.gap
		} else {
			out = append(out, t)
		}
	}
	return out
}

// walk hands fn every continuation (tip, TsB) of the settled tips into po:
// an entry of the tip's trace whose TsA is the tip's timestamp. One forward
// cursor reads each run, so a block decodes at most once however many tips
// probe it. qs is charged one row per chain, as joinChains charges.
func walk(qs *qstate, tips []tip, po storage.Postings, fn func(t *tip, tsB model.Timestamp)) error {
	curs := openCursors(po)
	var tsBs []model.Timestamp
	for i := range tips {
		t := &tips[i]
		tsBs = tsBs[:0]
		for j := range curs {
			var err error
			if tsBs, err = curs[j].read(tsBs, t.trace, t.ts); err != nil {
				return err
			}
		}
		for _, tsB := range tsBs {
			fn(t, tsB)
		}
		for k := int64(0); k < t.n; k++ {
			if err := qs.step(1); err != nil {
				return err
			}
		}
	}
	return nil
}
