package ingest

import (
	"context"
	"sort"

	"seqlog/internal/model"
	"seqlog/internal/pairs"
	"seqlog/internal/storage"
)

// session is the resident extraction state of one live trace. Under STNM it
// wraps a streaming StateExtractor (Algorithm 8) fed across micro-batches;
// under SC only the last event is needed. The session also carries the
// timestamp-normalization watermark, so successive flushes bump ties exactly
// like one serial Builder.Update over the concatenated batches would.
//
// The Builder re-reads a trace's stored prefix and re-extracts all pairs on
// every Update; a session pays that cost once, when the trace first appears
// on the stream, and O(batch) afterwards — the asymptotic win the paper
// claims for the State method in fully dynamic environments.
type session struct {
	sc      bool
	ext     *pairs.StateExtractor // STNM
	lastAct model.ActivityID      // SC: pending first event of the next pair
	lastTS  model.Timestamp
	hasLast bool
	prev    model.Timestamp // last normalized timestamp (boundary)
	cycle   uint64          // extraction cycle that last fed the session
}

// loadSession builds the session of a trace from its stored prefix. For
// STNM the prefix is replayed into a fresh extractor and the replayed
// completions are discarded — they are already indexed; extraction is
// prefix-stable, so every later Drain yields exactly the occurrences a
// batch re-extraction would keep after its boundary filter.
//
// The extractor is always the State flavor regardless of the Builder method
// configured for batch ingestion: all STNM flavors produce identical pair
// sets (the property tests enforce it), and State is the only streaming one.
func loadSession(tables storage.Backend, id model.TraceID, policy model.Policy) (*session, error) {
	old, _, err := tables.GetSeq(context.Background(), id)
	if err != nil {
		return nil, err
	}
	s := &session{sc: policy == model.SC, prev: model.Timestamp(-1 << 62)}
	if len(old) > 0 {
		s.prev = old[len(old)-1].TS
	}
	if s.sc {
		if len(old) > 0 {
			last := old[len(old)-1]
			s.lastAct, s.lastTS, s.hasLast = last.Activity, last.TS, true
		}
		return s, nil
	}
	s.ext = pairs.NewStreamingStateExtractor()
	for _, ev := range old {
		s.ext.Add(ev)
	}
	s.ext.Drain()
	return s, nil
}

// addBatch folds one flush's pending events into the session: stable-sort
// by timestamp, normalize against the running watermark (ties and
// regressions bump to prev+1, the Builder's rule verbatim), extract. It
// returns the normalized events (to append to Seq) and the pair completions
// they caused, in completion order.
func (s *session) addBatch(pending []model.Event) ([]model.TraceEvent, []pairs.PairOccurrence) {
	evs := make([]model.TraceEvent, len(pending))
	for i, e := range pending {
		evs[i] = model.TraceEvent{Activity: e.Activity, TS: e.TS}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	prev := s.prev
	for i := range evs {
		if evs[i].TS <= prev {
			evs[i].TS = prev + 1
		}
		prev = evs[i].TS
	}
	s.prev = prev

	var occs []pairs.PairOccurrence
	if s.sc {
		for _, ev := range evs {
			if s.hasLast {
				occs = append(occs, pairs.PairOccurrence{
					Key: model.NewPairKey(s.lastAct, ev.Activity),
					Occ: pairs.Occurrence{TsA: s.lastTS, TsB: ev.TS},
				})
			}
			s.lastAct, s.lastTS, s.hasLast = ev.Activity, ev.TS, true
		}
	} else {
		for _, ev := range evs {
			s.ext.Add(ev)
		}
		occs = s.ext.Drain()
	}
	return evs, occs
}
