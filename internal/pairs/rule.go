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

// Extend applies the rule to one trace. stored is the trace's indexed prefix
// (its Seq row) and batch its new events in arrival order. Like append, it
// returns stored with the batch appended — stable-sorted by timestamp and
// normalised — reusing stored's spare capacity; the new events are the tail
// past len(stored). The Result holds the occurrences completing after the
// prefix: extraction is prefix-stable, so every other one was indexed with
// the prefix.
//
// counts, when non-nil, holds how often each activity occurs in stored;
// Extend then re-extracts only the suffix window that decides the new
// completions (see window) and adds the batch to counts. With nil counts it
// re-extracts the whole trace.
//
// Under a total order, ties and regressions are bumped to the previous
// timestamp + 1 (the paper's positions-as-timestamps fallback), so the whole
// sequence is strictly increasing. Under partial order a batch reaching back
// to the prefix's last timestamp is rejected: splitting a tie group would
// hide its new completions behind the boundary filter.
func (r Rule) Extend(stored, batch []model.TraceEvent, counts map[model.ActivityID]int) ([]model.TraceEvent, Result, error) {
	boundary := model.Timestamp(-1 << 62)
	if len(stored) > 0 {
		boundary = stored[len(stored)-1].TS
	}
	sort.SliceStable(batch, func(i, j int) bool { return batch[i].TS < batch[j].TS })
	if r.PartialOrder {
		if len(stored) > 0 && len(batch) > 0 && batch[0].TS <= boundary {
			return nil, nil, fmt.Errorf("%w to ts %d (stored up to %d)", ErrReachesBack, batch[0].TS, boundary)
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

	from := 0
	if counts != nil {
		from = r.window(stored, batch, counts)
		for _, ev := range batch {
			counts[ev.Activity]++
		}
	}
	full := batch
	if len(stored) > 0 {
		full = append(stored, batch...)
	}
	var res Result
	if r.PartialOrder {
		res = ExtractSTNMPartial(full[from:])
	} else {
		res = Extract(full[from:], r.Policy, r.Method)
	}
	if len(stored) == 0 {
		return full, res, nil
	}
	fresh := make(Result)
	for k, occ := range res {
		lo := len(occ)
		for lo > 0 && occ[lo-1].TsB > boundary {
			lo--
		}
		if lo < len(occ) {
			fresh[k] = occ[lo:]
		}
	}
	return full, fresh, nil
}

// window returns the first position of stored that re-extraction must start
// from to report every completion batch adds, given how often each activity
// occurs in stored. SC pairs neighbours, so the last stored event suffices.
// Under a total-order STNM a completion (x, y) ends at a batch event y, and
// every (x, y) match restarts after an occurrence of y, so the window starts
// at or before the position just past y's last stored occurrence; it also
// starts past an even number of ys, so the (y, y) self pairs keep their
// alternation. A batch activity new to the trace pairs with the first stored
// occurrence of every activity, and partial-order matches chain through tie
// groups: both re-extract the whole trace. Each activity is new to a trace
// at most once, so a trace extended in small steps costs about the steps'
// size each, not the trace's length.
func (r Rule) window(stored, batch []model.TraceEvent, counts map[model.ActivityID]int) int {
	if r.PartialOrder || len(stored) == 0 {
		return 0
	}
	if r.Policy == model.SC {
		return len(stored) - 1
	}
	tail := make(map[model.ActivityID]int) // batch activity -> occurrences in stored[w:]
	for _, ev := range batch {
		if counts[ev.Activity] == 0 {
			return 0
		}
		tail[ev.Activity] = 0
	}
	for w := len(stored); w > 0; w-- {
		prev := stored[w-1].Activity
		ok := true
		for y, n := range tail {
			if (n == 0 && prev != y) || (counts[y]-n)%2 != 0 {
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
