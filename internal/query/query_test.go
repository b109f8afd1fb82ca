package query

import (
	"context"

	"errors"
	"math/rand"
	"reflect"
	"testing"

	"seqlog/internal/index"
	"seqlog/internal/kvstore"
	"seqlog/internal/model"
	"seqlog/internal/pairs"
	"seqlog/internal/storage"
)

func act(a byte) model.ActivityID { return model.ActivityID(a) }

func pattern(s string) model.Pattern {
	p := make(model.Pattern, len(s))
	for i, c := range []byte(s) {
		p[i] = act(c)
	}
	return p
}

// buildLog indexes the given traces (strings of one-byte activities, with
// positions as timestamps) under the policy and returns a processor.
func buildLog(t *testing.T, policy model.Policy, traces ...string) (*Processor, *storage.Tables) {
	t.Helper()
	tb := storage.NewTables(kvstore.NewMemStore())
	b, err := index.NewBuilder(tb, index.Options{Policy: policy, Method: pairs.Indexing, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var events []model.Event
	for ti, s := range traces {
		for i, c := range []byte(s) {
			events = append(events, model.Event{
				Trace:    model.TraceID(ti + 1),
				Activity: act(c),
				TS:       model.Timestamp(i + 1),
			})
		}
	}
	if _, err := b.Update(events); err != nil {
		t.Fatal(err)
	}
	return NewProcessor(tb), tb
}

func TestDetectRejectsShortPattern(t *testing.T) {
	q, _ := buildLog(t, model.STNM, "AB")
	if _, err := q.Detect(context.Background(), pattern("A")); !errors.Is(err, ErrShortPattern) {
		t.Fatalf("err = %v", err)
	}
	if _, err := q.DetectScan(context.Background(), nil, model.STNM); !errors.Is(err, ErrShortPattern) {
		t.Fatalf("err = %v", err)
	}
}

func TestDetectPairPattern(t *testing.T) {
	q, _ := buildLog(t, model.STNM, "AABAB", "BBA")
	ms, err := q.Detect(context.Background(), pattern("AB"))
	if err != nil {
		t.Fatal(err)
	}
	// Trace 1 (A1 A2 B3 A4 B5): STNM (A,B) = (1,3),(4,5). Trace 2: none.
	want := []Match{
		{Trace: 1, Timestamps: []model.Timestamp{1, 3}},
		{Trace: 1, Timestamps: []model.Timestamp{4, 5}},
	}
	if !reflect.DeepEqual(ms, want) {
		t.Fatalf("matches = %v", ms)
	}
}

func TestDetectPaperIntroExample(t *testing.T) {
	// §2.1: pattern AAB on <AAABAACB>. The index join chains
	// (A,A)=(3,5) with (A,B)=(5,8) — one completion; the direct STNM scan
	// finds (1,2,4) and (5,6,8). Both agree the trace matches.
	q, _ := buildLog(t, model.STNM, "AAABAACB")
	joined, err := q.Detect(context.Background(), pattern("AAB"))
	if err != nil {
		t.Fatal(err)
	}
	want := []Match{{Trace: 1, Timestamps: []model.Timestamp{3, 5, 8}}}
	if !reflect.DeepEqual(joined, want) {
		t.Fatalf("join = %v", joined)
	}
	scanned, err := q.DetectScan(context.Background(), pattern("AAB"), model.STNM)
	if err != nil {
		t.Fatal(err)
	}
	wantScan := []Match{
		{Trace: 1, Timestamps: []model.Timestamp{1, 2, 4}},
		{Trace: 1, Timestamps: []model.Timestamp{5, 6, 8}},
	}
	if !reflect.DeepEqual(scanned, wantScan) {
		t.Fatalf("scan = %v", scanned)
	}
}

func TestDetectKnownFalseNegative(t *testing.T) {
	// DESIGN.md documents this: pattern AYZ in trace YAYZ is found by the
	// direct scan but not by joining non-overlapping pairs, because the
	// index only holds (Y,Z)=(1,4).
	q, _ := buildLog(t, model.STNM, "YAYZ")
	joined, err := q.Detect(context.Background(), pattern("AYZ"))
	if err != nil {
		t.Fatal(err)
	}
	if len(joined) != 0 {
		t.Fatalf("expected the documented miss, got %v", joined)
	}
	scanned, err := q.DetectScan(context.Background(), pattern("AYZ"), model.STNM)
	if err != nil || len(scanned) != 1 {
		t.Fatalf("scan = %v %v", scanned, err)
	}
}

func TestDetectSCExactOnRandomLogs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 30; iter++ {
		var traces []string
		for i := 0; i < 5; i++ {
			n := 5 + rng.Intn(40)
			s := make([]byte, n)
			for j := range s {
				s[j] = byte('A' + rng.Intn(4))
			}
			traces = append(traces, string(s))
		}
		q, _ := buildLog(t, model.SC, traces...)
		for plen := 2; plen <= 5; plen++ {
			p := make(model.Pattern, plen)
			for j := range p {
				p[j] = act(byte('A' + rng.Intn(4)))
			}
			joined, err := q.Detect(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			scanned, err := q.DetectScan(context.Background(), p, model.SC)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(joined, scanned) {
				t.Fatalf("iter %d SC mismatch for %v:\njoin %v\nscan %v", iter, p, joined, scanned)
			}
		}
	}
}

// TestDetectSTNMSubsetProperty: under STNM, index-join traces are always a
// subset of direct-scan traces, and every join chain is a real subsequence.
func TestDetectSTNMSubsetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	misses := 0
	total := 0
	for iter := 0; iter < 50; iter++ {
		var traces []string
		for i := 0; i < 5; i++ {
			n := 5 + rng.Intn(40)
			s := make([]byte, n)
			for j := range s {
				s[j] = byte('A' + rng.Intn(3))
			}
			traces = append(traces, string(s))
		}
		q, _ := buildLog(t, model.STNM, traces...)
		for plen := 2; plen <= 4; plen++ {
			p := make(model.Pattern, plen)
			for j := range p {
				p[j] = act(byte('A' + rng.Intn(3)))
			}
			ms, err := q.Detect(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			scanned, err := q.DetectScan(context.Background(), p, model.STNM)
			if err != nil {
				t.Fatal(err)
			}
			scanSet := map[model.TraceID]bool{}
			for _, m := range scanned {
				scanSet[m.Trace] = true
			}
			total += len(scanSet)
			joinSet := map[model.TraceID]bool{}
			for _, m := range ms {
				if !scanSet[m.Trace] {
					t.Fatalf("join found trace %d the scan did not (pattern %v)", m.Trace, p)
				}
				joinSet[m.Trace] = true
			}
			for id := range scanSet {
				if !joinSet[id] {
					misses++
				}
			}
			// Every chain must be strictly increasing in time.
			for _, m := range ms {
				for i := 1; i < len(m.Timestamps); i++ {
					if m.Timestamps[i] <= m.Timestamps[i-1] {
						t.Fatalf("non-increasing chain %v", m)
					}
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("degenerate test: no scan matches at all")
	}
	// The recall gap exists but must be small on random data.
	if float64(misses) > 0.2*float64(total) {
		t.Fatalf("recall gap too large: %d misses of %d", misses, total)
	}
}

func TestDetectAbsentActivity(t *testing.T) {
	q, _ := buildLog(t, model.STNM, "ABAB")
	ms, err := q.Detect(context.Background(), pattern("AZ"))
	if err != nil || len(ms) != 0 {
		t.Fatalf("ms = %v %v", ms, err)
	}
	ms, err = q.Detect(context.Background(), pattern("ABZ"))
	if err != nil || len(ms) != 0 {
		t.Fatalf("ms = %v %v", ms, err)
	}
}

func TestMatchHelpers(t *testing.T) {
	m := Match{Trace: 1, Timestamps: []model.Timestamp{3, 7, 9}}
	if m.Start() != 3 || m.End() != 9 || m.Duration() != 6 {
		t.Fatalf("helpers: %d %d %d", m.Start(), m.End(), m.Duration())
	}
}

func TestStats(t *testing.T) {
	// Table 3 trace: AABABA.
	q, _ := buildLog(t, model.STNM, "AABABA")
	st, err := q.Stats(context.Background(), pattern("AB"))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Pairs) != 1 {
		t.Fatalf("pairs = %v", st.Pairs)
	}
	ps := st.Pairs[0]
	// STNM (A,B) = (1,3),(4,5): 2 completions, durations 2 and 1.
	if ps.Completions != 2 || ps.AvgDuration != 1.5 || ps.LastCompletion != 5 {
		t.Fatalf("pair stats = %+v", ps)
	}
	if st.MaxCompletions != 2 || st.EstimatedDuration != 1.5 {
		t.Fatalf("pattern stats = %+v", st)
	}

	st, err = q.Stats(context.Background(), pattern("ABA"))
	if err != nil {
		t.Fatal(err)
	}
	// (B,A) = (3,4),(5,6): 2 completions avg 1. Upper bound stays 2,
	// estimated duration 1.5 + 1.
	if st.MaxCompletions != 2 || st.EstimatedDuration != 2.5 {
		t.Fatalf("pattern stats = %+v", st)
	}

	// A pair that never occurs bounds the pattern at zero.
	st, err = q.Stats(context.Background(), pattern("AZ"))
	if err != nil || st.MaxCompletions != 0 {
		t.Fatalf("stats with absent pair: %+v %v", st, err)
	}
	if _, err := q.Stats(context.Background(), pattern("A")); !errors.Is(err, ErrShortPattern) {
		t.Fatal("short pattern accepted")
	}
}

func TestExploreAccurate(t *testing.T) {
	// Traces designed so that after AB, C follows twice and D once.
	q, _ := buildLog(t, model.STNM, "ABC", "ABC", "ABD")
	props, err := q.ExploreAccurate(context.Background(), pattern("AB"), ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 2 {
		t.Fatalf("props = %v", props)
	}
	byEvent := map[model.ActivityID]Proposal{}
	for _, p := range props {
		byEvent[p.Event] = p
		if !p.Exact {
			t.Fatalf("accurate proposal not exact: %v", p)
		}
	}
	if byEvent[act('C')].Completions != 2 || byEvent[act('D')].Completions != 1 {
		t.Fatalf("completions: %v", props)
	}
	// C scores higher (same avg duration, more completions).
	if props[0].Event != act('C') {
		t.Fatalf("ranking: %v", props)
	}
}

func TestExploreAccurateTimeConstraint(t *testing.T) {
	// After AB, the C continuation has gap 1 in one trace and a large gap
	// in the other (C much later).
	tb := storage.NewTables(kvstore.NewMemStore())
	b, _ := index.NewBuilder(tb, index.Options{Policy: model.STNM, Method: pairs.Indexing, Workers: 1})
	events := []model.Event{
		{Trace: 1, Activity: act('A'), TS: 1}, {Trace: 1, Activity: act('B'), TS: 2}, {Trace: 1, Activity: act('C'), TS: 100},
		{Trace: 2, Activity: act('A'), TS: 1}, {Trace: 2, Activity: act('B'), TS: 2}, {Trace: 2, Activity: act('D'), TS: 3},
	}
	if _, err := b.Update(events); err != nil {
		t.Fatal(err)
	}
	q := NewProcessor(tb)
	props, err := q.ExploreAccurate(context.Background(), pattern("AB"), ExploreOptions{MaxAvgGap: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 1 || props[0].Event != act('D') {
		t.Fatalf("constraint failed to drop slow continuation: %v", props)
	}
}

func TestExploreFast(t *testing.T) {
	q, _ := buildLog(t, model.STNM, "ABC", "ABC", "ABD", "XBD")
	props, err := q.ExploreFast(context.Background(), pattern("AB"), ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	byEvent := map[model.ActivityID]Proposal{}
	for _, p := range props {
		byEvent[p.Event] = p
		if p.Exact {
			t.Fatalf("fast proposal claims exactness: %v", p)
		}
	}
	// (A,B) completions = 3; (B,C) = 2, (B,D) = 2 → capped at min(3, ·).
	if byEvent[act('C')].Completions != 2 || byEvent[act('D')].Completions != 2 {
		t.Fatalf("fast completions: %v", props)
	}
}

func TestExploreFastCapsAtPatternBound(t *testing.T) {
	// (A,B) occurs once but (B,C) occurs three times; the candidate C must
	// be capped at 1.
	q, _ := buildLog(t, model.STNM, "ABC", "XBC", "YBC")
	props, err := q.ExploreFast(context.Background(), pattern("AB"), ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 1 || props[0].Completions != 1 {
		t.Fatalf("cap failed: %v", props)
	}
}

func TestExploreHybrid(t *testing.T) {
	q, _ := buildLog(t, model.STNM, "ABC", "ABC", "ABD", "ABE", "ABE", "ABE")
	// topK=0 degenerates to Fast.
	fast, _ := q.ExploreFast(context.Background(), pattern("AB"), ExploreOptions{})
	hyb0, err := q.ExploreHybrid(context.Background(), pattern("AB"), ExploreOptions{TopK: 0})
	if err != nil || !reflect.DeepEqual(fast, hyb0) {
		t.Fatalf("topK=0: %v vs %v (%v)", hyb0, fast, err)
	}
	// Large topK matches Accurate.
	acc, _ := q.ExploreAccurate(context.Background(), pattern("AB"), ExploreOptions{})
	hybAll, err := q.ExploreHybrid(context.Background(), pattern("AB"), ExploreOptions{TopK: 100})
	if err != nil || !reflect.DeepEqual(acc, hybAll) {
		t.Fatalf("topK=all:\nhyb %v\nacc %v (%v)", hybAll, acc, err)
	}
	// Intermediate topK returns the full candidate ranking with exactly
	// k exact entries.
	hyb2, err := q.ExploreHybrid(context.Background(), pattern("AB"), ExploreOptions{TopK: 2})
	if err != nil || len(hyb2) != len(fast) {
		t.Fatalf("topK=2: %v %v", hyb2, err)
	}
	exact := 0
	for _, p := range hyb2 {
		if p.Exact {
			exact++
		}
	}
	if exact != 2 {
		t.Fatalf("hybrid re-checked %d candidates, want 2: %v", exact, hyb2)
	}
}

func TestExploreShortPattern(t *testing.T) {
	q, _ := buildLog(t, model.STNM, "ABC")
	// Single-event patterns are valid for continuation.
	props, err := q.ExploreAccurate(context.Background(), pattern("A"), ExploreOptions{})
	if err != nil || len(props) == 0 {
		t.Fatalf("single-event explore: %v %v", props, err)
	}
	if _, err := q.ExploreAccurate(context.Background(), nil, ExploreOptions{}); !errors.Is(err, ErrShortPattern) {
		t.Fatal("empty pattern accepted")
	}
	if _, err := q.ExploreFast(context.Background(), nil, ExploreOptions{}); !errors.Is(err, ErrShortPattern) {
		t.Fatal("empty pattern accepted by fast")
	}
}

func TestProposalString(t *testing.T) {
	p := Proposal{Event: 5, Completions: 2, AvgDuration: 1.5, Score: 1.3333, Exact: true}
	if p.String() == "" {
		t.Fatal("empty proposal string")
	}
}

func TestMatchTraceSCSingle(t *testing.T) {
	evs := []model.TraceEvent{{Activity: act('A'), TS: 1}, {Activity: act('B'), TS: 2}}
	got := MatchTrace(evs, pattern("B"), model.SC)
	if len(got) != 1 || got[0][0] != 2 {
		t.Fatalf("single-event SC match: %v", got)
	}
	if MatchTrace(evs, pattern("ABC"), model.SC) != nil {
		t.Fatal("pattern longer than trace matched")
	}
}
