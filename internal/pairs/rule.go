package pairs

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"

	"seqlog/internal/model"
)

// ErrReachesBack marks a partial-order batch that does not start strictly
// after the events its trace already holds.
var ErrReachesBack = errors.New("partial-order batch reaches back")

// Rule is the per-trace step of the incremental index update (§3.1.3,
// Algorithm 1), shared by the batch Builder and the streaming pipeline:
// normalise a trace's new events against its indexed prefix and report the
// occurrences the new events complete.
type Rule struct {
	// Policy is SC or STNM; STAM is not indexable with non-overlapping pairs.
	Policy model.Policy
	// Method is the STNM extraction flavor (§4.2) of the whole-trace path
	// (a nil Tally); ignored for SC, under partial order and by sessions.
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

// Tally is what a pipeline session keeps of its trace between Extend calls,
// empty when zero: each activity's first occurrence, sorted by activity, and
// whether the activity occurs in an odd number of timestamp groups.
type Tally []first

type first struct {
	ts  model.Timestamp
	act model.ActivityID
	odd bool
}

func (t *Tally) find(a model.ActivityID) (int, bool) {
	return slices.BinarySearchFunc(*t, a, func(f first, a model.ActivityID) int { return cmp.Compare(f.act, a) })
}

// Add tallies events, which hold whole timestamp groups.
func (t *Tally) Add(events []model.TraceEvent) {
	for i, ev := range events {
		if lo, _ := group(events, i); holds(events[lo:i], ev.Activity) {
			continue // tallied with its group
		}
		if k, ok := t.find(ev.Activity); ok {
			(*t)[k].odd = !(*t)[k].odd
		} else {
			*t = slices.Insert(*t, k, first{ts: ev.TS, act: ev.Activity, odd: true})
		}
	}
}

// Extend applies the rule to one trace. stored is the trace's indexed prefix
// (its Seq row) and batch its new events in arrival order. Like append, it
// returns stored with the batch appended, stable-sorted by timestamp and
// normalised, reusing stored's spare capacity; res holds the occurrences
// completing at a new event and scanned the events read to find them.
//
// With a nil tally Extend extracts the whole trace with r.Method and keeps
// the completions past the prefix (Algorithm 1 as written). Otherwise tally
// tallies stored, and Extend pairs each timestamp group of new events (an
// event under a total order) with the groups before it, reading back only
// to each activity's previous group (DESIGN §7 gives the proof). Under SC
// an event pairs with its predecessor. Under STNM an activity y new to the
// trace completes (x, y) at (first x, y) for every x the tally holds, the
// State method's retroactive open (§4.2); a known y completes (x, y), x ≠ y,
// at the first x after y's previous group h (under partial order an x tied
// with h too, unless h completed (x, y)), and (y, y) at (h, y) iff y occurs
// in an odd number of earlier groups. Under a total order ties and
// regressions are bumped to the previous timestamp + 1 (the paper's
// positions-as-timestamps fallback); under partial order a batch reaching
// back to the prefix is rejected, since splitting a tie group would hide its
// completions.
func (r Rule) Extend(stored, batch []model.TraceEvent, tally *Tally) (full []model.TraceEvent, res Result, scanned int, err error) {
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
	if tally == nil {
		if r.PartialOrder {
			res = ExtractSTNMPartial(full)
		} else {
			res = Extract(full, r.Policy, r.Method)
		}
		for k, occ := range res { // keep the completions past the prefix
			res[k] = occ[sort.Search(len(occ), func(i int) bool { return occ[i].TsB > boundary }):]
		}
		maps.DeleteFunc(res, func(_ model.PairKey, occ []Occurrence) bool { return len(occ) == 0 })
		return full, res, len(full), nil
	}

	res, arena := make(Result), make([]Occurrence, 0, len(*tally))
	for s := len(stored); s < len(full); {
		_, e := group(full, s)
		for i := s; i < e; i++ {
			y := full[i]
			switch {
			case r.Policy == model.SC:
				if i > 0 {
					put(res, &arena, full[i-1].Activity, y.Activity, full[i-1].TS, y.TS)
					scanned++
				}
				continue
			case holds(full[s:i], y.Activity):
				continue // paired with its group
			}
			k, known := tally.find(y.Activity)
			if !known {
				for _, x := range *tally {
					put(res, &arena, x.act, y.Activity, x.ts, y.TS)
				}
				scanned += len(*tally)
				continue
			}
			h, _ := lastGroup(full, y.Activity, s)
			scanned += s - h
			for _, x := range full[h:s] {
				if x.Activity != y.Activity && (x.TS > full[h].TS || !completedAt(full, x.Activity, y.Activity, h)) {
					put(res, &arena, x.Activity, y.Activity, x.TS, y.TS)
				}
			}
			if (*tally)[k].odd {
				put(res, &arena, y.Activity, y.Activity, full[h].TS, y.TS)
			}
		}
		tally.Add(full[s:e])
		s = e
	}
	return full, res, scanned, nil
}

// completedAt reports whether the tie group at events[lo], holding x and y,
// completed (x, y): iff an x lies after y's previous group, or that group
// holds an x and did not complete (x, y) itself, the same test one group back.
func completedAt(events []model.TraceEvent, x, y model.ActivityID, lo int) bool {
	for done := true; ; done = !done {
		gl, gh := lastGroup(events, y, lo)
		if holds(events[gh:lo], x) {
			return done
		}
		if !holds(events[gl:gh], x) {
			return !done
		}
		lo = gl
	}
}

// lastGroup bounds a's last timestamp group before events[lo]; 0, 0 if none.
func lastGroup(events []model.TraceEvent, a model.ActivityID, lo int) (int, int) {
	for j := lo - 1; j >= 0; j-- {
		if events[j].Activity == a {
			return group(events, j)
		}
	}
	return 0, 0
}

// group returns the bounds of the timestamp group holding events[i].
func group(events []model.TraceEvent, i int) (lo, hi int) {
	lo, hi = i, i+1
	for lo > 0 && events[lo-1].TS == events[i].TS {
		lo--
	}
	for hi < len(events) && events[hi].TS == events[i].TS {
		hi++
	}
	return lo, hi
}

func holds(events []model.TraceEvent, a model.ActivityID) bool {
	return slices.ContainsFunc(events, func(ev model.TraceEvent) bool { return ev.Activity == a })
}

// put adds (tsA, tsB) to (x, y) once per group, cutting new pairs from arena.
func put(res Result, arena *[]Occurrence, x, y model.ActivityID, tsA, tsB model.Timestamp) {
	k, o := model.NewPairKey(x, y), Occurrence{TsA: tsA, TsB: tsB}
	switch occ := res[k]; {
	case len(occ) == 0:
		*arena = append(*arena, o)
		res[k] = slices.Clip((*arena)[len(*arena)-1:])
	case occ[len(occ)-1].TsB != tsB:
		res[k] = append(occ, o)
	}
}
