package pairs

import (
	"math/rand"
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
