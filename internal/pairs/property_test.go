package pairs

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"seqlog/internal/model"
)

// Property tests over seeded random logs for the equivalences the system
// leans on: the paper asserts its three STNM extraction flavors (Parsing,
// Indexing, State) compute the same pair sets, and Algorithm 1's dedup —
// Rule.Extend, which batch and streaming ingestion share — relies on
// extraction being prefix-stable (indexing a prefix never changes the
// occurrences a longer run of the same trace produces).

// randomLogTraces generates a seeded multi-trace log: each trace gets its
// own length, alphabet skew and timestamp gaps, strictly increasing per
// trace (the order the builder normalises to).
func randomLogTraces(rng *rand.Rand, traces int) [][]model.TraceEvent {
	out := make([][]model.TraceEvent, traces)
	for t := range out {
		alphabet := 2 + rng.Intn(7)
		n := 1 + rng.Intn(60)
		ts := model.Timestamp(rng.Intn(100))
		evs := make([]model.TraceEvent, n)
		for i := range evs {
			ts += model.Timestamp(1 + rng.Intn(9))
			evs[i] = model.TraceEvent{Activity: model.ActivityID(rng.Intn(alphabet)), TS: ts}
		}
		out[t] = evs
	}
	return out
}

// TestExtractorsAgreeOnRandomLogs: for every trace of seeded random logs the
// three STNM flavors and the oblivious reference produce identical results.
func TestExtractorsAgreeOnRandomLogs(t *testing.T) {
	for _, seed := range []int64{1, 23, 456, 7890} {
		rng := rand.New(rand.NewSource(seed))
		for ti, evs := range randomLogTraces(rng, 25) {
			ref := ExtractReference(evs)
			for _, m := range []Method{Parsing, Indexing, State} {
				if got := ExtractSTNM(evs, m); !Equal(got, ref) {
					t.Fatalf("seed %d trace %d: %v diverges from reference\nevents: %v\ngot: %v\nwant: %v",
						seed, ti, m, evs, got, ref)
				}
			}
		}
	}
}

// TestExtractionIsPrefixStable: extracting a prefix yields a prefix of the
// full trace's occurrence lists, and the occurrences completing after the
// prefix boundary are exactly the full-minus-prefix remainder. This is the
// property that lets Algorithm 1 dedup re-extracted pairs with one watermark
// per trace (see Builder.Update).
func TestExtractionIsPrefixStable(t *testing.T) {
	for _, seed := range []int64{11, 222} {
		rng := rand.New(rand.NewSource(seed))
		for ti, evs := range randomLogTraces(rng, 15) {
			if len(evs) < 2 {
				continue
			}
			cut := 1 + rng.Intn(len(evs)-1)
			boundary := evs[cut-1].TS
			for _, m := range []Method{Parsing, Indexing, State} {
				full := ExtractSTNM(evs, m)
				prefix := ExtractSTNM(evs[:cut], m)
				// Rebuild the full result as prefix + post-boundary tail.
				rebuilt := make(Result, len(full))
				for k, occ := range prefix {
					rebuilt[k] = append([]Occurrence(nil), occ...)
				}
				for k, occ := range full {
					lo := sort.Search(len(occ), func(i int) bool { return occ[i].TsB > boundary })
					if lo < len(occ) {
						rebuilt[k] = append(rebuilt[k], occ[lo:]...)
					}
				}
				if !Equal(rebuilt, full) {
					t.Fatalf("seed %d trace %d cut %d: %v is not prefix-stable\nprefix: %v\nfull: %v",
						seed, ti, cut, m, prefix, full)
				}
			}
		}
	}
}

// TestExtendLargeAlphabetsMatchReference: over alphabets of 30–60
// activities, where most events are new to their trace, a trace fed to
// Extend one event at a time or in random chunks — with ties and, under a
// total order, regressions, which the rule bumps forward — reports across
// its calls exactly the occurrences the reference finds in the normalised
// whole trace: ExtractReference, or ExtractReferencePartial under partial
// order, whose chunks never split a tie group. The tally is built once the
// trace holds events, as a pipeline session builds it.
func TestExtendLargeAlphabetsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, partial := range []bool{false, true} {
		rules := []Rule{{Policy: model.STNM, PartialOrder: true}}
		reference := ExtractReferencePartial
		if !partial {
			rules = rules[:0]
			for _, m := range stnmMethods {
				rules = append(rules, Rule{Policy: model.STNM, Method: m})
			}
			reference = ExtractReference
		}
		events, fresh := 0, 0
		for iter := 0; iter < 150; iter++ {
			alphabet := 30 + rng.Intn(31)
			evs := make([]model.TraceEvent, 1+rng.Intn(alphabet*3/2))
			ts := model.Timestamp(100)
			seen := make(map[model.ActivityID]bool)
			for i := range evs {
				switch rng.Intn(5) {
				case 0: // tie
				case 1:
					if !partial {
						ts -= model.Timestamp(1 + rng.Intn(5)) // regression
					}
				default:
					ts += model.Timestamp(1 + rng.Intn(5))
				}
				a := model.ActivityID(rng.Intn(alphabet))
				if !seen[a] {
					seen[a] = true
					fresh++
				}
				evs[i] = model.TraceEvent{Activity: a, TS: ts}
			}
			events += len(evs)
			var perEvent, chunks []int
			for i := range evs {
				if partial && i+1 < len(evs) && evs[i+1].TS == evs[i].TS {
					continue
				}
				perEvent = append(perEvent, i+1)
				if i+1 == len(evs) || rng.Intn(4) == 0 {
					chunks = append(chunks, i+1)
				}
			}
			for _, cuts := range [][]int{perEvent, chunks} {
				var wantSeq []model.TraceEvent
				var want Result
				for _, r := range rules {
					var (
						seq   []model.TraceEvent
						res   Result
						tally *Tally
						err   error
					)
					got := make(Result)
					lo := 0
					for _, hi := range cuts {
						if tally == nil && len(seq) > 0 {
							tally = new(Tally)
							tally.Add(seq)
						}
						if seq, res, _, err = r.Extend(seq, slices.Clone(evs[lo:hi]), tally); err != nil {
							t.Fatal(err)
						}
						for k, occ := range res {
							got[k] = append(got[k], occ...)
						}
						lo = hi
					}
					if want == nil {
						wantSeq, want = seq, reference(seq)
					}
					if !slices.Equal(seq, wantSeq) || !Equal(got, want) {
						t.Fatalf("iter %d %+v cuts %v: chunked Extend diverges from the reference\ntrace: %v\ngot:  %v %v\nwant: %v %v",
							iter, r, cuts, evs, seq, got, wantSeq, want)
					}
				}
			}
		}
		if 2*fresh <= events {
			t.Fatalf("partial=%v: only %d of %d events were new to their trace", partial, fresh, events)
		}
	}
}
