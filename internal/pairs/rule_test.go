package pairs

import (
	"math/rand"
	"slices"
	"testing"

	"seqlog/internal/model"
)

// randomTiedTrace is a random trace with nondecreasing timestamps, about a
// third of them tied with their predecessor — the per-trace order a stream
// delivers.
func randomTiedTrace(rng *rand.Rand, alphabet, n int) []model.TraceEvent {
	evs := make([]model.TraceEvent, n)
	ts := model.Timestamp(1)
	for i := range evs {
		if rng.Intn(3) != 0 {
			ts++
		}
		evs[i] = model.TraceEvent{Activity: model.ActivityID(rng.Intn(alphabet)), TS: ts}
	}
	return evs
}

// TestExtendChunksEqualBatch: folding a trace through Extend in random
// chunks yields the one-shot Extend of the whole trace — the same normalised
// sequence, and per pair the same occurrences in completion order, each
// reported by exactly one chunk — whether each chunk re-extracts the whole
// trace (nil tally, the Builder) or only what it can complete (a tally, a
// pipeline session). This is what lets one rule serve batch ingestion and
// every flush cycle of the stream. Under partial order the chunks never
// split a tie group (the rule refuses that; see
// TestExtendPartialOrderReachBack).
func TestExtendChunksEqualBatch(t *testing.T) {
	rules := []Rule{{Policy: model.SC}, {Policy: model.STNM, PartialOrder: true}}
	for _, m := range stnmMethods {
		rules = append(rules, Rule{Policy: model.STNM, Method: m})
	}
	rng := rand.New(rand.NewSource(29))
	for _, r := range rules {
		for iter := 0; iter < 300; iter++ {
			evs := randomTiedTrace(rng, 1+rng.Intn(6), rng.Intn(120))
			wantSeq, want, _, err := r.Extend(nil, slices.Clone(evs), nil)
			if err != nil {
				t.Fatal(err)
			}

			for _, windowed := range []bool{false, true} {
				var (
					seq   []model.TraceEvent
					tally *Tally
				)
				if windowed {
					tally = new(Tally)
				}
				got := make(Result)
				for lo := 0; lo < len(evs); {
					hi := min(len(evs), lo+1+rng.Intn(9))
					for r.PartialOrder && hi < len(evs) && evs[hi].TS == evs[hi-1].TS {
						hi++
					}
					var res Result
					if seq, res, _, err = r.Extend(seq, slices.Clone(evs[lo:hi]), tally); err != nil {
						t.Fatalf("%+v iter %d: chunk [%d,%d): %v", r, iter, lo, hi, err)
					}
					for k, occ := range res {
						got[k] = append(got[k], occ...)
					}
					lo = hi
				}
				if !slices.Equal(seq, wantSeq) || !Equal(got, want) {
					t.Fatalf("%+v iter %d windowed=%v: chunked Extend diverges from one shot\ntrace: %v\ngot:  %v %v\nwant: %v %v",
						r, iter, windowed, evs, seq, got, wantSeq, want)
				}
			}
		}
	}
}

// TestExtendReadsPerCall: a long trace extended a few events at a time
// reads about the steps' size per call, not the stored prefix — the bound
// that keeps a long-lived stream linear in its length. SC reads one stored
// event per new one; STNM reads each new event's gap back to its activity's
// previous occurrence, and partial order the same over tie groups. The
// 40-activity leg meets a new activity every 50 steps, long after its prefix
// is long: a new activity reads the tally, not the trace, and a known one a
// gap about as wide as the alphabet.
func TestExtendReadsPerCall(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, leg := range []struct {
		r        Rule
		alphabet func(step int) int
		widest   int
	}{
		{Rule{Policy: model.SC}, func(int) int { return 4 }, 4},
		{Rule{Policy: model.STNM}, func(int) int { return 4 }, 40},
		{Rule{Policy: model.STNM}, func(step int) int { return min(40, 1+step/50) }, 411},
		{Rule{Policy: model.STNM, PartialOrder: true}, func(int) int { return 4 }, 46},
	} {
		var seq []model.TraceEvent
		tally := new(Tally)
		ts := model.Timestamp(0)
		widest := 0
		for step := 0; step < 2000; step++ {
			batch := make([]model.TraceEvent, 1+rng.Intn(4))
			ts++
			for i := range batch {
				if i > 0 && (!leg.r.PartialOrder || rng.Intn(2) == 0) {
					ts++
				}
				batch[i] = model.TraceEvent{Activity: model.ActivityID(rng.Intn(leg.alphabet(step))), TS: ts}
			}
			stored := len(seq)
			var (
				n   int
				err error
			)
			if seq, _, n, err = leg.r.Extend(seq, batch, tally); err != nil {
				t.Fatal(err)
			}
			if step >= 100 {
				widest = max(widest, n)
				if n >= stored {
					t.Fatalf("%+v step %d: read %d events over a %d-event prefix", leg.r, step, n, stored)
				}
			}
		}
		if widest > leg.widest {
			t.Fatalf("%+v: widest call read %d events of a %d-event trace", leg.r, widest, len(seq))
		}
	}
}

// TestExtendPartialTiesWithPreviousGroup: under partial order an x tied
// with y's previous group pairs with a later y only if that group did not
// complete (x, y) itself. In a@1 b@2 a@2 b@3 the group at 2 completed
// (a, b) = [1 2], so b@3 completes nothing; in b@1 a@2 b@2 b@3 it did not,
// so b@3 completes (a, b) = [2 3]. Each trace is fed one tie group per call.
func TestExtendPartialTiesWithPreviousGroup(t *testing.T) {
	r := Rule{Policy: model.STNM, PartialOrder: true}
	ev := func(a rune, ts model.Timestamp) model.TraceEvent {
		return model.TraceEvent{Activity: model.ActivityID(a), TS: ts}
	}
	for _, tc := range []struct {
		groups [][]model.TraceEvent
		want   []Occurrence
	}{
		{[][]model.TraceEvent{{ev('a', 1)}, {ev('b', 2), ev('a', 2)}, {ev('b', 3)}}, occs(1, 2)},
		{[][]model.TraceEvent{{ev('b', 1)}, {ev('a', 2), ev('b', 2)}, {ev('b', 3)}}, occs(2, 3)},
	} {
		var seq []model.TraceEvent
		tally := new(Tally)
		got := make(Result)
		for _, g := range tc.groups {
			var (
				res Result
				err error
			)
			if seq, res, _, err = r.Extend(seq, g, tally); err != nil {
				t.Fatal(err)
			}
			for k, occ := range res {
				got[k] = append(got[k], occ...)
			}
		}
		if !slices.Equal(got[key('a', 'b')], tc.want) || !Equal(got, ExtractReferencePartial(seq)) {
			t.Fatalf("%v: (a, b) = %v, want %v; all %v", seq, got[key('a', 'b')], tc.want, got)
		}
	}
}

// TestExtendNormalisesTotalOrder: ties and regressions are bumped forward
// from the stored boundary, and only completions past it are reported.
func TestExtendNormalisesTotalOrder(t *testing.T) {
	r := Rule{Policy: model.STNM, Method: Indexing}
	stored := trace("AB") // A@1 B@2
	full, res, _, err := r.Extend(stored, []model.TraceEvent{
		{Activity: 'B', TS: 2}, {Activity: 'A', TS: 1},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Stable sort puts A@1 first; both bump past the boundary 2.
	want := []model.TraceEvent{{Activity: 'A', TS: 1}, {Activity: 'B', TS: 2}, {Activity: 'A', TS: 3}, {Activity: 'B', TS: 4}}
	if !slices.Equal(full, want) {
		t.Fatalf("sequence = %v, want %v", full, want)
	}
	wantRes := Result{key('A', 'B'): occs(3, 4), key('B', 'A'): occs(2, 3), key('A', 'A'): occs(1, 3), key('B', 'B'): occs(2, 4)}
	if !Equal(res, wantRes) {
		t.Fatalf("new occurrences = %v, want %v", res, wantRes)
	}
}

// TestExtendPartialOrderReachBack: under partial order a batch must be
// strictly later than the stored prefix — a tie with the boundary or an
// earlier event is refused before anything is extracted.
func TestExtendPartialOrderReachBack(t *testing.T) {
	r := Rule{Policy: model.STNM, PartialOrder: true}
	stored := []model.TraceEvent{{Activity: 'a', TS: 1}, {Activity: 'b', TS: 5}}
	for _, ts := range []model.Timestamp{3, 5} {
		if _, _, _, err := r.Extend(slices.Clone(stored), []model.TraceEvent{{Activity: 'c', TS: ts}}, nil); err == nil {
			t.Fatalf("batch at ts %d accepted onto a prefix stored up to 5", ts)
		}
	}
	full, res, _, err := r.Extend(slices.Clone(stored), []model.TraceEvent{{Activity: 'c', TS: 6}, {Activity: 'd', TS: 6}}, nil)
	if err != nil || len(full) != 4 {
		t.Fatalf("later batch: %v %v", full, err)
	}
	if _, ok := res[key('c', 'd')]; ok || len(res[key('a', 'c')]) != 1 {
		t.Fatalf("new occurrences = %v", res)
	}
}

func TestRuleValidate(t *testing.T) {
	for _, r := range []Rule{{Policy: model.STAM}, {Policy: model.SC, PartialOrder: true}} {
		if r.Validate() == nil {
			t.Fatalf("%+v accepted", r)
		}
	}
	for _, r := range []Rule{{Policy: model.SC}, {Policy: model.STNM, PartialOrder: true}} {
		if err := r.Validate(); err != nil {
			t.Fatalf("%+v: %v", r, err)
		}
	}
}
