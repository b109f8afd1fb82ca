// Package query implements the query processor component of §3.2 of the
// paper: statistics queries over the Count table and the per-pair latest
// completion kept in LastChecked, pattern detection by joining
// inverted-index rows (Algorithm 2), and the three pattern-continuation
// strategies — Accurate (Algorithm 3), Fast (Algorithm 4) and Hybrid
// (Algorithm 5) — ranked by Equation 1. Accurate joins the pattern once and
// extends that frontier per candidate (continuation.go) instead of running
// Algorithm 3's detection per candidate; the answers are the same.
package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"seqlog/internal/model"
	"seqlog/internal/pairs"
	"seqlog/internal/parallel"
	"seqlog/internal/storage"
)

// ErrShortPattern is returned for detection patterns with fewer than two
// events; the pair index cannot anchor a single event to a trace.
var ErrShortPattern = errors.New("query: pattern must contain at least two events")

// Processor answers pattern queries against the tables built by the index
// package — single-store (*storage.Tables) or sharded (shard.Tables); the
// storage.Backend seam hides the difference, and every answer is identical
// at any shard count. It holds no per-query state and is safe for
// concurrent use once configured.
type Processor struct {
	tables  storage.Backend
	workers int // continuation fan-out; 0 ⇒ all cores, 1 ⇒ serial
}

// NewProcessor wraps the given tables.
func NewProcessor(tables storage.Backend) *Processor { return &Processor{tables: tables} }

// SetWorkers bounds the per-candidate fan-out of the continuation queries
// (ExploreAccurate / ExploreInsertAccurate and the Hybrid re-check): 0 uses
// all cores, 1 runs serially. Call it before serving queries. Results are
// identical at any worker count; only latency changes.
func (q *Processor) SetWorkers(n int) { q.workers = n }

// Match is one detected completion of a pattern inside a trace: one
// timestamp per pattern event.
type Match struct {
	Trace      model.TraceID
	Timestamps []model.Timestamp
}

// Start returns the timestamp of the first matched event.
func (m Match) Start() model.Timestamp { return m.Timestamps[0] }

// End returns the timestamp of the last matched event.
func (m Match) End() model.Timestamp { return m.Timestamps[len(m.Timestamps)-1] }

// Duration returns End - Start.
func (m Match) Duration() int64 { return int64(m.End() - m.Start()) }

// Detect implements Algorithm 2 (GetCompletions): it reads the inverted
// index row of (ev1, ev2) and then, for every following pair of the
// pattern, keeps the chains whose shared event carries the same timestamp.
// The matches of every sub-pattern prefix are a natural by-product, which
// is what makes pattern continuation incremental (§5.4.1).
//
// The join itself is the merge join of join.go over cached pre-sorted rows,
// not the paper's nested-map join — same results, measured at a fraction of
// the time and allocations (see BenchmarkDetectJoin).
//
// Under the SC policy the result is exactly the set of contiguous
// occurrences. Under STNM, chains of non-overlapping pairs are a subset of
// the traces a direct skip-till-next-match scan would report (see DESIGN.md
// and the recall experiment); use DetectScan for the scan-exact answer.
func (q *Processor) Detect(ctx context.Context, p model.Pattern) ([]Match, error) {
	return q.detect(q.begin(ctx), p, 0)
}

func (q *Processor) detect(qs *qstate, p model.Pattern, within int64) ([]Match, error) {
	if len(p) < 2 {
		return nil, ErrShortPattern
	}
	pos, err := q.patternPostings(qs.context(), p)
	if err != nil || pos == nil {
		return nil, err
	}
	ms, err := joinPostings(qs, pos, within)
	if err != nil {
		return nil, err
	}
	return ms, qs.truncErr()
}

// DetectScan answers the same query without the index by scanning the Seq
// table and matching each trace directly (greedy skip-till-next-match or
// sliding-window strict contiguity). It is the exact reference the recall
// experiment compares against, and the fallback for single-event patterns.
func (q *Processor) DetectScan(ctx context.Context, p model.Pattern, policy model.Policy) ([]Match, error) {
	return q.scan(ctx, p, func(events []model.TraceEvent) [][]model.Timestamp { return MatchTrace(events, p, policy) })
}

// DetectScanPartial is DetectScan under partial order (§7): same-timestamp
// events are concurrent and each pattern step must advance strictly in
// time.
func (q *Processor) DetectScanPartial(ctx context.Context, p model.Pattern) ([]Match, error) {
	return q.scan(ctx, p, func(events []model.TraceEvent) [][]model.Timestamp { return pairs.MatchTracePartial(events, p) })
}

// scan matches every stored trace with match.
func (q *Processor) scan(ctx context.Context, p model.Pattern, match func([]model.TraceEvent) [][]model.Timestamp) ([]Match, error) {
	if len(p) == 0 {
		return nil, ErrShortPattern
	}
	qs := q.begin(ctx)
	var out []Match
	err := q.tables.ScanSeq(qs.context(), func(id model.TraceID, events []model.TraceEvent) error {
		// Budget check before matching the trace: a truncated scan returns
		// the matches of a prefix of the trace iteration, never a partially
		// matched trace.
		if err := qs.step(len(events)); err != nil {
			return err
		}
		for _, ts := range match(events) {
			out = append(out, Match{Trace: id, Timestamps: ts})
		}
		return nil
	})
	if err != nil && !errors.Is(err, errTruncated) {
		return nil, err
	}
	sortMatches(out)
	return out, qs.truncErr()
}

// MatchTrace matches a pattern against one event sequence. For SC it
// reports every contiguous occurrence (overlaps included, matching what the
// pair join reconstructs); for STNM it reports the greedy non-overlapping
// occurrences of the paper's §2.1 example.
func MatchTrace(events []model.TraceEvent, p model.Pattern, policy model.Policy) [][]model.Timestamp {
	if len(p) == 0 || len(events) < len(p) {
		return nil
	}
	var out [][]model.Timestamp
	switch policy {
	case model.SC:
		for i := 0; i+len(p) <= len(events); i++ {
			ok := true
			for j := range p {
				if events[i+j].Activity != p[j] {
					ok = false
					break
				}
			}
			if ok {
				ts := make([]model.Timestamp, len(p))
				for j := range p {
					ts[j] = events[i+j].TS
				}
				out = append(out, ts)
			}
		}
	default: // STNM
		ts := make([]model.Timestamp, 0, len(p))
		j := 0
		for _, ev := range events {
			if ev.Activity == p[j] {
				ts = append(ts, ev.TS)
				j++
				if j == len(p) {
					out = append(out, append([]model.Timestamp(nil), ts...))
					ts, j = ts[:0], 0
				}
			}
		}
	}
	return out
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Trace != ms[j].Trace {
			return ms[i].Trace < ms[j].Trace
		}
		if ei, ej := ms[i].End(), ms[j].End(); ei != ej {
			return ei < ej
		}
		// Full lexicographic tie-break: equal-End matches land in one
		// deterministic order regardless of join implementation.
		a, b := ms[i].Timestamps, ms[j].Timestamps
		for k := range a {
			if k >= len(b) {
				return false
			}
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// PairStats are the per-pair figures of the Statistics query (§3.2.1).
type PairStats struct {
	First          model.ActivityID
	Second         model.ActivityID
	Completions    int64
	AvgDuration    float64
	LastCompletion model.Timestamp // latest completion over all traces and periods
}

// PatternStats aggregates pairwise statistics over a pattern: the minimum
// pair count upper-bounds the completions of the whole pattern, and the sum
// of average durations estimates the pattern duration.
type PatternStats struct {
	Pairs             []PairStats
	MaxCompletions    int64
	EstimatedDuration float64
}

// Stats implements the Statistics query for every pair of consecutive
// pattern events, using only the Count and LastChecked tables.
func (q *Processor) Stats(ctx context.Context, p model.Pattern) (PatternStats, error) {
	return q.stats(ctx, p, false)
}

// stats reads the pairs (p[i], p[j]) of every i < j when allPairs is set,
// and the consecutive ones otherwise; the duration estimate sums the
// consecutive pairs either way.
func (q *Processor) stats(ctx context.Context, p model.Pattern, allPairs bool) (PatternStats, error) {
	if len(p) < 2 {
		return PatternStats{}, ErrShortPattern
	}
	qs := q.begin(noPartial(ctx))
	out := PatternStats{MaxCompletions: math.MaxInt64}
	for i := 0; i < len(p); i++ {
		for j := i + 1; j < len(p) && (allPairs || j == i+1); j++ {
			ps, err := q.pairStats(qs, p[i], p[j])
			if err != nil {
				return PatternStats{}, err
			}
			out.Pairs = append(out.Pairs, ps)
			out.MaxCompletions = min(out.MaxCompletions, ps.Completions)
			if j == i+1 {
				out.EstimatedDuration += ps.AvgDuration
			}
		}
	}
	return out, nil
}

func (q *Processor) pairStats(qs *qstate, a, b model.ActivityID) (PairStats, error) {
	ps := PairStats{First: a, Second: b}
	entry, ok, err := q.tables.GetPairCount(qs.context(), a, b)
	if err != nil {
		return ps, err
	}
	if ok {
		ps.Completions = entry.Completions
		ps.AvgDuration = entry.AvgDuration()
	}
	if ps.LastCompletion, err = q.tables.GetLastCompletion(qs.context(), model.NewPairKey(a, b)); err != nil {
		return ps, err
	}
	return ps, qs.step(2) // one row per table read
}

// Proposal is one candidate continuation of a pattern, ranked by Equation 1
// of the paper: Score = total_completions / average_duration.
type Proposal struct {
	Event       model.ActivityID
	Completions int64   // exact (Accurate) or upper bound (Fast)
	AvgDuration float64 // duration of the appended pair
	Score       float64
	Exact       bool // true when Completions came from full detection
}

// score applies Equation 1, guarding against zero durations (possible when
// a pair always completes within one timestamp unit after normalisation).
func score(completions int64, avgDuration float64) float64 {
	if completions == 0 {
		return 0
	}
	if avgDuration <= 0 {
		avgDuration = 1
	}
	return float64(completions) / avgDuration
}

// ExploreOptions tune the continuation queries.
type ExploreOptions struct {
	// MaxAvgGap, when positive, drops candidates whose average gap
	// between the pattern's last event and the appended event exceeds it
	// (the optional time constraint of Algorithm 3, line 7).
	MaxAvgGap float64
	// TopK bounds how many Fast propositions the Hybrid strategy
	// re-checks accurately (Algorithm 5). 0 degenerates to Fast and
	// values ≥ |candidates| to Accurate, as the paper notes.
	TopK int
}

// ExploreAccurate implements Algorithm 3: every successor candidate of the
// pattern's last event (from the Count table) is appended to the pattern and
// verified, so completions are exact. It is the insertion at len(p): the
// pattern is joined once and each candidate only extends that frontier by its
// own pair (continuation.go), with the answers and row budget of one full
// detection per candidate. The extensions fan out over the processor's
// worker pool (SetWorkers); the ranking is identical at any worker count.
func (q *Processor) ExploreAccurate(ctx context.Context, p model.Pattern, opts ExploreOptions) ([]Proposal, error) {
	return q.ExploreInsertAccurate(ctx, p, len(p), nil, opts)
}

// collectProposals drops the nil (constraint-filtered) slots of a parallel
// verification round, preserving candidate order.
func collectProposals(props []*Proposal) []Proposal {
	var out []Proposal
	for _, p := range props {
		if p != nil {
			out = append(out, *p)
		}
	}
	return out
}

// ExploreFast implements Algorithm 4: the upper bound of the pattern's
// completions is the minimum pair count along the pattern; each candidate's
// completions are capped by it. Only precomputed statistics are read, so the
// response time is independent of the log size.
func (q *Processor) ExploreFast(ctx context.Context, p model.Pattern, opts ExploreOptions) ([]Proposal, error) {
	if len(p) == 0 {
		return nil, ErrShortPattern
	}
	qs := q.begin(noPartial(ctx))
	maxCompletions := int64(math.MaxInt64)
	for i := 0; i+1 < len(p); i++ {
		entry, ok, err := q.tables.GetPairCount(qs.context(), p[i], p[i+1])
		if err != nil {
			return nil, err
		}
		if err := qs.step(1); err != nil {
			return nil, err
		}
		if !ok {
			maxCompletions = 0
			break
		}
		maxCompletions = min(maxCompletions, entry.Completions)
	}
	candidates, err := q.tables.GetCounts(qs.context(), p[len(p)-1])
	if err != nil {
		return nil, err
	}
	if err := qs.step(len(candidates)); err != nil {
		return nil, err
	}
	var out []Proposal
	for _, cand := range candidates {
		completions := min(cand.Completions, maxCompletions)
		avg := cand.AvgDuration()
		if opts.MaxAvgGap > 0 && avg > opts.MaxAvgGap {
			continue
		}
		out = append(out, Proposal{
			Event:       cand.Other,
			Completions: completions,
			AvgDuration: avg,
			Score:       score(completions, avg),
		})
	}
	sortProposals(out)
	return out, nil
}

// ExploreHybrid implements Algorithm 5: rank with Fast, re-check the topK
// intermediate results with Accurate, and return the re-ranked union of the
// exact topK and the remaining approximate propositions (so the caller
// always sees the full candidate ranking, with exactness marked per entry —
// the behaviour behind the paper's Figure 7 accuracy curve).
func (q *Processor) ExploreHybrid(ctx context.Context, p model.Pattern, opts ExploreOptions) ([]Proposal, error) {
	ctx = noPartial(ctx)
	fast, err := q.ExploreFast(ctx, p, opts)
	if err != nil {
		return nil, err
	}
	// The re-check reports the exact figures unfiltered, like the original
	// Algorithm 5 loop: MaxAvgGap already filtered the fast ranking.
	return q.recheckTopK(ctx, fast, opts.TopK, q.continueAt(ctx, p, len(p), ExploreOptions{}).verify)
}

// recheckTopK is the shared second stage of the Hybrid strategies
// (Algorithm 5): clamp topK into [0, len(fast)], verify the topK
// fast-ranked candidates exactly — fanned over the worker pool — and
// re-rank the union of the exact head and the approximate tail. A candidate
// that appears in both halves keeps only its exact entry, so equal-score
// duplicates cannot make the ranking drift between runs.
func (q *Processor) recheckTopK(ctx context.Context, fast []Proposal, topK int, verify func(model.ActivityID) (*Proposal, error)) ([]Proposal, error) {
	k := min(max(topK, 0), len(fast))
	if k == 0 {
		return fast, nil
	}
	head := fast[:k]
	checked := make(map[model.ActivityID]bool, k)
	for _, fp := range head {
		checked[fp.Event] = true
	}
	out := make([]Proposal, 0, len(fast))
	for _, fp := range fast[k:] {
		if checked[fp.Event] {
			continue // deduplicate: the exact entry wins
		}
		out = append(out, fp)
	}
	exact, err := parallel.MapCtx(ctx, head, q.workers, func(fp Proposal) (*Proposal, error) {
		return verify(fp.Event)
	})
	if err != nil {
		return nil, err
	}
	out = append(out, collectProposals(exact)...)
	sortProposals(out)
	return out, nil
}

// proposalRank tiers proposals for ranking: verified candidates with real
// completions first (their scores are actuals), then unverified ones (their
// scores are optimistic bounds — and they already ranked below the verified
// tier under those bounds, so letting them leapfrog would compare a bound
// against an actual), and verified-absent candidates last.
func proposalRank(p Proposal) int {
	switch {
	case p.Exact && p.Completions > 0:
		return 0
	case !p.Exact:
		return 1
	default:
		return 2
	}
}

func sortProposals(ps []Proposal) {
	sort.Slice(ps, func(i, j int) bool {
		ri, rj := proposalRank(ps[i]), proposalRank(ps[j])
		if ri != rj {
			return ri < rj
		}
		if ps[i].Score != ps[j].Score {
			return ps[i].Score > ps[j].Score
		}
		return ps[i].Event < ps[j].Event
	})
}

// String renders a proposal for diagnostics.
func (p Proposal) String() string {
	kind := "≈"
	if p.Exact {
		kind = "="
	}
	return fmt.Sprintf("event=%d completions%s%d avg=%.2f score=%.4f", p.Event, kind, p.Completions, p.AvgDuration, p.Score)
}
