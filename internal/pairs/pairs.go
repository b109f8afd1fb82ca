// Package pairs implements the event-pair extraction algorithms of §4 of the
// paper: the strict-contiguity scan (§4.1) and the three skip-till-next-match
// flavors — Parsing (Algorithm 6), Indexing, and State (Algorithm 8).
//
// Ground truth for STNM is Table 3 of the paper: for every ordered pair of
// event types (a, b) — including a == b — the trace is matched greedily and
// without overlaps: find the next a after the previous pair's b, then the
// next b after that a. All three flavors must produce identical pair sets;
// the property tests enforce mutual agreement and agreement with an
// intentionally naive reference implementation.
package pairs

import (
	"sort"

	"seqlog/internal/model"
)

// Occurrence is one completion of an event-type pair inside a trace: the
// timestamps of the first and second matched events.
type Occurrence struct {
	TsA model.Timestamp
	TsB model.Timestamp
}

// Result maps each event-type pair to its occurrences within a single trace,
// ordered by completion time (TsB ascending). It is the trace-local slice of
// the paper's inverted Index table.
type Result map[model.PairKey][]Occurrence

// Method selects one of the STNM extraction flavors of §4.2.
type Method uint8

const (
	// Parsing computes pairs while scanning through the sequence once per
	// distinct first-event type (Algorithm 6).
	Parsing Method = iota
	// Indexing first records the positions of each distinct event type
	// and then merges position lists per pair.
	Indexing
	// State folds the sequence event-by-event into a hash map keyed by
	// pair, appending timestamps under the odd/even rule (Algorithm 8).
	State
)

// String returns the paper's name for the method.
func (m Method) String() string {
	switch m {
	case Parsing:
		return "Parsing"
	case Indexing:
		return "Indexing"
	case State:
		return "State"
	default:
		return "Method(?)"
	}
}

// ExtractSC implements §4.1: every pair of consecutive trace events is an
// occurrence. Complexity O(n) for a trace of n events.
func ExtractSC(events []model.TraceEvent) Result {
	res := make(Result, len(events))
	for i := 0; i+1 < len(events); i++ {
		k := model.NewPairKey(events[i].Activity, events[i+1].Activity)
		res[k] = append(res[k], Occurrence{TsA: events[i].TS, TsB: events[i+1].TS})
	}
	return res
}

// ExtractSTNM extracts skip-till-next-match pairs with the chosen flavor.
func ExtractSTNM(events []model.TraceEvent, m Method) Result {
	switch m {
	case Parsing:
		return extractParsing(events)
	case Indexing:
		return extractIndexing(events)
	case State:
		return extractState(events)
	default:
		return extractIndexing(events)
	}
}

// Extract dispatches on policy: SC uses the contiguous scan, STNM uses the
// given method. STAM is not indexable with non-overlapping pairs and is only
// served by the sase substrate.
func Extract(events []model.TraceEvent, policy model.Policy, m Method) Result {
	if policy == model.SC {
		return ExtractSC(events)
	}
	return ExtractSTNM(events, m)
}

// extractParsing is the Parsing method (Algorithm 6): one scan of the trace
// per distinct first-event type a, starting at a's first occurrence. While
// scanning, each second type b is in one of three states: unseen (its first
// pair will start at a's first occurrence), open (an a has been assigned,
// waiting for the next b), or waiting (its previous pair completed; it needs
// a fresh a, and the next a event in the scan is by construction the
// earliest admissible one).
func extractParsing(events []model.TraceEvent) Result {
	res := make(Result)
	n := len(events)
	checked := make(map[model.ActivityID]bool)

	for i0 := 0; i0 < n; i0++ {
		a := events[i0].Activity
		if checked[a] {
			continue
		}
		checked[a] = true
		firstA := events[i0].TS

		open := make(map[model.ActivityID]model.Timestamp) // b -> assigned a timestamp
		var waiting []model.ActivityID                     // bs whose next pair needs a fresh a
		inWaiting := make(map[model.ActivityID]bool)
		seen := make(map[model.ActivityID]bool) // bs encountered in this scan
		selfOpen, selfHas := firstA, true       // the first a opens the (a,a) pair

		for j := i0 + 1; j < n; j++ {
			ev := events[j]
			if ev.Activity == a {
				// Close or open the self pair.
				if selfHas {
					k := model.NewPairKey(a, a)
					res[k] = append(res[k], Occurrence{TsA: selfOpen, TsB: ev.TS})
					selfHas = false
				} else {
					selfOpen, selfHas = ev.TS, true
				}
				// Every waiting b gets this a as its next first event.
				for _, b := range waiting {
					open[b] = ev.TS
					inWaiting[b] = false
				}
				waiting = waiting[:0]
				continue
			}
			b := ev.Activity
			if ts, ok := open[b]; ok {
				k := model.NewPairKey(a, b)
				res[k] = append(res[k], Occurrence{TsA: ts, TsB: ev.TS})
				delete(open, b)
				if !inWaiting[b] {
					waiting = append(waiting, b)
					inWaiting[b] = true
				}
				continue
			}
			if !seen[b] {
				// First b in the scan: pairs with the first a of the trace.
				seen[b] = true
				k := model.NewPairKey(a, b)
				res[k] = append(res[k], Occurrence{TsA: firstA, TsB: ev.TS})
				if !inWaiting[b] {
					waiting = append(waiting, b)
					inWaiting[b] = true
				}
			}
			// Otherwise b is waiting for a fresh a: skip (the
			// "not in inter_events" branch of Algorithm 6).
		}
	}
	return res
}

// extractIndexing is the Indexing method: one pass records the positions of
// every distinct event type; then, for every ordered type pair, the two
// position lists are merged under the non-overlap constraint. Complexity
// O(n·l²) worst case as analysed in the paper, O(n + pairs) in practice.
//
// The merges run in two passes — count, then fill into one arena — so the
// method performs a constant number of allocations per trace regardless of
// how many of the l² pairs occur. This is what keeps Indexing ahead of the
// other flavors on the random logs of Figure 3, as in the paper.
func extractIndexing(events []model.TraceEvent) Result {
	positions := make(map[model.ActivityID][]int32)
	for i, ev := range events {
		positions[ev.Activity] = append(positions[ev.Activity], int32(i))
	}
	types := make([]model.ActivityID, 0, len(positions))
	for a := range positions {
		types = append(types, a)
	}
	// Deterministic iteration keeps results reproducible across runs.
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })

	// Pass 1: count matches per pair.
	counts := make([]int, len(types)*len(types))
	total := 0
	for ai, a := range types {
		la := positions[a]
		for bi, b := range types {
			c := mergeCount(la, positions[b])
			counts[ai*len(types)+bi] = c
			total += c
		}
	}

	// Pass 2: fill one shared arena and slice it per pair.
	arena := make([]Occurrence, 0, total)
	res := make(Result, total)
	for ai, a := range types {
		la := positions[a]
		for bi, b := range types {
			c := counts[ai*len(types)+bi]
			if c == 0 {
				continue
			}
			start := len(arena)
			arena = mergeFill(arena, events, la, positions[b])
			res[model.NewPairKey(a, b)] = arena[start : start+c : start+c]
		}
	}
	return res
}

// mergeCount counts the greedy non-overlapping matches of two ascending
// position lists: repeatedly the first a-position after the previous match's
// end, then the first b-position strictly after it. It works unchanged when
// both lists are the same slice (self pairs).
func mergeCount(la, lb []int32) int {
	n := 0
	last := int32(-1)
	i, j := 0, 0
	for {
		for i < len(la) && la[i] <= last {
			i++
		}
		if i == len(la) {
			break
		}
		apos := la[i]
		for j < len(lb) && lb[j] <= apos {
			j++
		}
		if j == len(lb) {
			break
		}
		n++
		last = lb[j]
	}
	return n
}

// mergeFill repeats the merge of mergeCount, appending the matched
// timestamp pairs to arena.
func mergeFill(arena []Occurrence, events []model.TraceEvent, la, lb []int32) []Occurrence {
	last := int32(-1)
	i, j := 0, 0
	for {
		for i < len(la) && la[i] <= last {
			i++
		}
		if i == len(la) {
			break
		}
		apos := la[i]
		for j < len(lb) && lb[j] <= apos {
			j++
		}
		if j == len(lb) {
			break
		}
		bpos := lb[j]
		arena = append(arena, Occurrence{TsA: events[apos].TS, TsB: events[bpos].TS})
		last = bpos
	}
	return arena
}

// StateExtractor is the State method (Algorithm 8) exposed as a streaming
// fold: events are added one at a time and the pair lists grow under the
// odd/even rule, so a partially observed trace can be saved and resumed —
// the property the paper argues makes State preferable in fully dynamic
// environments. Finalize trims unmatched opens and yields the Result.
type StateExtractor struct {
	lists map[model.PairKey][]model.Timestamp
	seen  []model.ActivityID
	first map[model.ActivityID]model.Timestamp
}

// NewStateExtractor returns an empty extractor.
func NewStateExtractor() *StateExtractor {
	return &StateExtractor{
		lists: make(map[model.PairKey][]model.Timestamp),
		first: make(map[model.ActivityID]model.Timestamp),
	}
}

// Add folds one event into the state: for every known type x, the entry
// (e, x) is extended when its list has even length (e opens a pair) and the
// entry (x, e) when odd (e closes a pair). Self pairs receive a single
// parity-guided append — the published rule would append the same event
// twice (see DESIGN.md).
//
// The paper initialises the hash map with all pairs of the trace's distinct
// types before streaming (Algorithm 8, line 1); since a streaming extractor
// cannot look ahead, we instead open (x, e) retroactively at x's first
// occurrence when a brand-new type e appears — exactly the entry the eager
// initialisation would have produced by that point.
func (s *StateExtractor) Add(ev model.TraceEvent) {
	e, ts := ev.Activity, ev.TS
	if _, known := s.first[e]; !known {
		for _, x := range s.seen {
			// Retroactive open: (x, e) was empty, so this never completes.
			k := model.NewPairKey(x, e)
			s.lists[k] = append(s.lists[k], s.first[x])
		}
		s.first[e] = ts
		s.seen = append(s.seen, e)
	}
	for _, x := range s.seen {
		if x == e {
			// Self pair: alternate open/close.
			k := model.NewPairKey(e, e)
			s.lists[k] = append(s.lists[k], ts)
			continue
		}
		// e as first event of (e, x): open when balanced.
		k1 := model.NewPairKey(e, x)
		if len(s.lists[k1])%2 == 0 {
			s.lists[k1] = append(s.lists[k1], ts)
		}
		// e as second event of (x, e): close when open.
		k2 := model.NewPairKey(x, e)
		if len(s.lists[k2])%2 == 1 {
			s.lists[k2] = append(s.lists[k2], ts)
		}
	}
}

// Finalize trims odd-length lists and converts them into occurrences. The
// extractor remains usable; Finalize may be called repeatedly as more events
// stream in (open pairs are simply not reported yet).
func (s *StateExtractor) Finalize() Result {
	res := make(Result, len(s.lists))
	for k, ts := range s.lists {
		n := len(ts) &^ 1 // drop an unmatched trailing open
		if n == 0 {
			continue
		}
		occ := make([]Occurrence, 0, n/2)
		for i := 0; i < n; i += 2 {
			occ = append(occ, Occurrence{TsA: ts[i], TsB: ts[i+1]})
		}
		res[k] = occ
	}
	return res
}

func extractState(events []model.TraceEvent) Result {
	s := NewStateExtractor()
	for _, ev := range events {
		s.Add(ev)
	}
	return s.Finalize()
}

// ExtractReference is the oblivious reference used by the tests: for every
// ordered pair of types present in the trace it replays the greedy
// non-overlapping match directly on the event slice. O(l²·n); correct by
// construction against the Table 3 semantics.
func ExtractReference(events []model.TraceEvent) Result {
	present := make(map[model.ActivityID]bool)
	var types []model.ActivityID
	for _, ev := range events {
		if !present[ev.Activity] {
			present[ev.Activity] = true
			types = append(types, ev.Activity)
		}
	}
	res := make(Result)
	for _, a := range types {
		for _, b := range types {
			var occ []Occurrence
			i := 0
			for {
				// next a at position >= i
				for i < len(events) && events[i].Activity != a {
					i++
				}
				if i == len(events) {
					break
				}
				apos := i
				j := apos + 1
				for j < len(events) && events[j].Activity != b {
					j++
				}
				if j == len(events) {
					break
				}
				occ = append(occ, Occurrence{TsA: events[apos].TS, TsB: events[j].TS})
				i = j + 1
			}
			if len(occ) > 0 {
				res[model.NewPairKey(a, b)] = occ
			}
		}
	}
	return res
}

// Equal reports whether two results hold exactly the same occurrences.
func Equal(x, y Result) bool {
	if len(x) != len(y) {
		return false
	}
	for k, xs := range x {
		ys, ok := y[k]
		if !ok || len(xs) != len(ys) {
			return false
		}
		for i := range xs {
			if xs[i] != ys[i] {
				return false
			}
		}
	}
	return true
}

// NumOccurrences counts all occurrences in the result.
func NumOccurrences(r Result) int {
	n := 0
	for _, occ := range r {
		n += len(occ)
	}
	return n
}
