package pairs

import (
	"errors"
	"fmt"
	"sort"

	"seqlog/internal/model"
)

// ErrReachesBack marks a partial-order batch that does not start strictly
// after the events its trace already holds.
var ErrReachesBack = errors.New("partial-order batch reaches back")

// Rule is the per-trace step of the incremental index update (§3.1.3,
// Algorithm 1), shared by the batch Builder and the streaming pipeline:
// normalise a trace's new events against its indexed prefix, re-extract the
// pairs the new events can complete, and keep only the occurrences the
// prefix had not completed.
type Rule struct {
	// Policy is SC or STNM; STAM is not indexable with non-overlapping pairs.
	Policy model.Policy
	// Method is the STNM extraction flavor (§4.2); ignored for SC and under
	// partial order.
	Method Method
	// PartialOrder treats same-timestamp events as concurrent (§7): ties are
	// kept, and new events must be strictly later than the stored ones.
	PartialOrder bool
}

// Validate rejects the rules an index cannot be maintained under.
func (r Rule) Validate() error {
	if r.Policy != model.SC && r.Policy != model.STNM {
		return fmt.Errorf("policy %v is not indexable", r.Policy)
	}
	if r.PartialOrder && r.Policy != model.STNM {
		return errors.New("partial order requires the STNM policy")
	}
	return nil
}

// Tally is what a pipeline session keeps of its trace between Extend calls:
// how often each activity occurs in the events so far, and the first
// occurrence of each, in order of appearance.
type Tally struct {
	counts map[model.ActivityID]int
	firsts []model.TraceEvent
}

// NewTally tallies a trace's stored events.
func NewTally(events []model.TraceEvent) *Tally {
	t := &Tally{counts: make(map[model.ActivityID]int)}
	for _, ev := range events {
		t.add(ev)
	}
	return t
}

func (t *Tally) add(ev model.TraceEvent) {
	n := t.counts[ev.Activity]
	if n == 0 {
		t.firsts = append(t.firsts, ev)
	}
	t.counts[ev.Activity] = n + 1
}

// Extend applies the rule to one trace. stored is the trace's indexed prefix
// (its Seq row) and batch its new events in arrival order. Like append, it
// returns stored with the batch appended — stable-sorted by timestamp and
// normalised — reusing stored's spare capacity; the new events are the tail
// past len(stored). The Result holds the occurrences completing after the
// prefix: extraction is prefix-stable, so every other one was indexed with
// the prefix. extracted is how many events Extend handed to extraction.
//
// tally, when non-nil, tallies stored; Extend then adds the batch to it and
// extracts only what the batch can complete. Under a total-order STNM it
// walks the batch in order: an activity y new to the trace completes exactly
// one (x, y) per activity x the trace already holds, at (first x, y) — the
// retroactive open of the State method (§4.2, StateExtractor.Add) — so it
// needs no extraction; each run of known activities re-extracts its suffix
// window (see window) over the events before it. SC and partial order
// re-extract their window of the whole batch. With a nil tally Extend
// re-extracts the whole trace.
//
// Under a total order, ties and regressions are bumped to the previous
// timestamp + 1 (the paper's positions-as-timestamps fallback), so the whole
// sequence is strictly increasing. Under partial order a batch reaching back
// to the prefix's last timestamp is rejected: splitting a tie group would
// hide its new completions behind the boundary filter.
func (r Rule) Extend(stored, batch []model.TraceEvent, tally *Tally) (full []model.TraceEvent, res Result, extracted int, err error) {
	boundary := model.Timestamp(-1 << 62)
	if len(stored) > 0 {
		boundary = stored[len(stored)-1].TS
	}
	sort.SliceStable(batch, func(i, j int) bool { return batch[i].TS < batch[j].TS })
	if r.PartialOrder {
		if len(stored) > 0 && len(batch) > 0 && batch[0].TS <= boundary {
			return nil, nil, 0, fmt.Errorf("%w to ts %d (stored up to %d)", ErrReachesBack, batch[0].TS, boundary)
		}
	} else {
		prev := boundary
		for i := range batch {
			if batch[i].TS <= prev {
				batch[i].TS = prev + 1
			}
			prev = batch[i].TS
		}
	}
	full = batch
	if len(stored) > 0 {
		full = append(stored, batch...)
	}
	if tally == nil || r.PartialOrder || r.Policy == model.SC {
		from := 0
		if tally != nil {
			from = r.window(stored, batch, tally)
			for _, ev := range batch {
				tally.add(ev)
			}
		}
		res = r.extract(full[from:])
		if len(stored) > 0 {
			res = appendFresh(make(Result), res, boundary)
		}
		return full, res, len(full) - from, nil
	}

	res = make(Result)
	for i := 0; i < len(batch); {
		y := batch[i]
		if tally.counts[y.Activity] == 0 {
			occ := make([]Occurrence, len(tally.firsts))
			for j, x := range tally.firsts {
				occ[j] = Occurrence{TsA: x.TS, TsB: y.TS}
				res[model.NewPairKey(x.Activity, y.Activity)] = occ[j : j+1 : j+1]
			}
			tally.add(y)
			i++
			continue
		}
		end := i + 1
		for end < len(batch) && tally.counts[batch[end].Activity] > 0 {
			end++
		}
		prefix := full[:len(stored)+i]
		from := r.window(prefix, batch[i:end], tally)
		res = appendFresh(res, r.extract(full[from:len(stored)+end]), prefix[len(prefix)-1].TS)
		extracted += len(stored) + end - from
		for _, ev := range batch[i:end] {
			tally.add(ev)
		}
		i = end
	}
	return full, res, extracted, nil
}

func (r Rule) extract(events []model.TraceEvent) Result {
	if r.PartialOrder {
		return ExtractSTNMPartial(events)
	}
	return Extract(events, r.Policy, r.Method)
}

// appendFresh appends to dst the occurrences of res completing after
// boundary. Per pair they come last in res, in completion order.
func appendFresh(dst, res Result, boundary model.Timestamp) Result {
	for k, occ := range res {
		lo := len(occ)
		for lo > 0 && occ[lo-1].TsB > boundary {
			lo--
		}
		if lo == len(occ) {
			continue
		}
		if cur := dst[k]; cur != nil {
			dst[k] = append(cur, occ[lo:]...)
		} else {
			dst[k] = occ[lo:]
		}
	}
	return dst
}

// window returns the first position of stored that re-extraction must start
// from to report every completion batch adds, given the tally of stored;
// every batch activity must already occur in stored. SC pairs neighbours, so
// the last stored event suffices. Under a total-order STNM a completion
// (x, y) ends at a batch event y, and every (x, y) match restarts after an
// occurrence of y, so the window starts at or before the position just past
// y's last stored occurrence; it also starts past an even number of ys, so
// the (y, y) self pairs keep their alternation. Partial-order matches chain
// through tie groups, so they re-extract the whole trace. A trace extended in
// small steps thus costs about the steps' size each, not the trace's length.
func (r Rule) window(stored, batch []model.TraceEvent, tally *Tally) int {
	if r.PartialOrder || len(stored) == 0 {
		return 0
	}
	if r.Policy == model.SC {
		return len(stored) - 1
	}
	tail := make(map[model.ActivityID]int) // batch activity -> occurrences in stored[w:]
	for _, ev := range batch {
		tail[ev.Activity] = 0
	}
	for w := len(stored); w > 0; w-- {
		prev := stored[w-1].Activity
		ok := true
		for y, n := range tail {
			if (n == 0 && prev != y) || (tally.counts[y]-n)%2 != 0 {
				ok = false
				break
			}
		}
		if ok {
			return w
		}
		if _, in := tail[prev]; in {
			tail[prev]++
		}
	}
	return 0
}
