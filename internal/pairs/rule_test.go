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
					tally = NewTally(nil)
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

// TestExtendWindowStaysNearTheEnd: a long trace extended a few events at a
// time hands extraction about the steps' size, not the stored prefix — the
// bound that keeps a long-lived stream linear in its length. SC needs one
// stored event; STNM reaches back past each batch activity's last
// occurrence. The 40-activity leg meets a new activity every 50 steps, long
// after its prefix is long: a new activity is paired without extraction, so
// no call re-extracts the whole stored prefix. Its windows are wider, since
// one window must start past an even number of occurrences of each of up to
// four rarer batch activities at once.
func TestExtendWindowStaysNearTheEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, leg := range []struct {
		r        Rule
		alphabet func(step int) int
		widest   int
	}{
		{Rule{Policy: model.SC}, func(int) int { return 4 }, 60},
		{Rule{Policy: model.STNM, Method: Indexing}, func(int) int { return 4 }, 60},
		{Rule{Policy: model.STNM, Method: Indexing}, func(step int) int { return min(40, 1+step/50) }, 1000},
	} {
		var seq []model.TraceEvent
		tally := NewTally(nil)
		ts := model.Timestamp(0)
		widest := 0
		for step := 0; step < 2000; step++ {
			batch := make([]model.TraceEvent, 1+rng.Intn(4))
			for i := range batch {
				ts++
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
					t.Fatalf("%+v step %d: extracted %d events over a %d-event prefix", leg.r, step, n, stored)
				}
			}
		}
		if widest > leg.widest {
			t.Fatalf("%+v: widest extraction %d events of a %d-event trace", leg.r, widest, len(seq))
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
