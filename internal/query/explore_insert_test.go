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

// storageWith indexes raw events (STNM) into fresh tables.
func storageWith(t testing.TB, events []model.Event) *storage.Tables {
	t.Helper()
	tb := storage.NewTables(kvstore.NewMemStore())
	b, err := index.NewBuilder(tb, index.Options{Policy: model.STNM, Method: pairs.Indexing, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Update(events); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestInsertAt(t *testing.T) {
	p := pattern("AC")
	if got := insertAt(p, 1, act('B')); !reflect.DeepEqual(got, pattern("ABC")) {
		t.Fatalf("insertAt middle = %v", got)
	}
	if got := insertAt(p, 0, act('X')); !reflect.DeepEqual(got, pattern("XAC")) {
		t.Fatalf("insertAt front = %v", got)
	}
	if got := insertAt(p, 2, act('X')); !reflect.DeepEqual(got, pattern("ACX")) {
		t.Fatalf("insertAt end = %v", got)
	}
	// The original pattern must not be mutated.
	if !reflect.DeepEqual(p, pattern("AC")) {
		t.Fatalf("insertAt mutated input: %v", p)
	}
}

func TestExploreInsertAccurateMiddle(t *testing.T) {
	// Traces: A?C where ? is B twice and D once; plus noise.
	q, _ := buildLog(t, model.STNM, "ABC", "ABC", "ADC", "AB", "DC")
	props, err := q.ExploreInsertAccurate(context.Background(), pattern("AC"), 1, nil, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	byEvent := map[model.ActivityID]Proposal{}
	for _, p := range props {
		byEvent[p.Event] = p
		if !p.Exact {
			t.Fatalf("not exact: %v", p)
		}
	}
	if byEvent[act('B')].Completions != 2 || byEvent[act('D')].Completions != 1 {
		t.Fatalf("completions: %v", props)
	}
	if props[0].Event != act('B') {
		t.Fatalf("ranking: %v", props)
	}
}

func TestExploreInsertAtEdges(t *testing.T) {
	q, _ := buildLog(t, model.STNM, "XAB", "XAB", "ABY")
	// Position 0: what precedes A? Every alphabet activity is tried.
	front, err := q.ExploreInsertAccurate(context.Background(), pattern("AB"), 0, pattern("ABXY"), ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) != 1 || front[0].Event != act('X') || front[0].Completions != 2 {
		t.Fatalf("front = %v", front)
	}
	// An activity the caller's alphabet leaves out is never proposed.
	if front, err := q.ExploreInsertAccurate(context.Background(), pattern("AB"), 0, pattern("ABY"), ExploreOptions{}); err != nil || len(front) != 0 {
		t.Fatalf("front without X in the alphabet = %v, %v", front, err)
	}
	// Position len(p): appending — must agree with ExploreAccurate.
	end, err := q.ExploreInsertAccurate(context.Background(), pattern("AB"), 2, nil, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendRes, err := q.ExploreAccurate(context.Background(), pattern("AB"), ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(end) != len(appendRes) {
		t.Fatalf("end-insert %v != append %v", end, appendRes)
	}
	for i := range end {
		if end[i].Event != appendRes[i].Event || end[i].Completions != appendRes[i].Completions {
			t.Fatalf("end-insert %v != append %v", end, appendRes)
		}
	}
}

func TestExploreInsertFast(t *testing.T) {
	q, _ := buildLog(t, model.STNM, "ABC", "ABC", "ADC", "XBZ")
	props, err := q.ExploreInsertFast(context.Background(), pattern("AC"), 1, nil, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	byEvent := map[model.ActivityID]Proposal{}
	for _, p := range props {
		byEvent[p.Event] = p
		if p.Exact {
			t.Fatalf("fast marked exact: %v", p)
		}
	}
	// B: min(count(A,B)=2... (A,B) occurs in ABC,ABC => 2; (B,C)=2; bound
	// also capped by pattern bound count(A,C)=3.
	if b, ok := byEvent[act('B')]; !ok || b.Completions != 2 {
		t.Fatalf("fast B = %v", props)
	}
	if d, ok := byEvent[act('D')]; !ok || d.Completions != 1 {
		t.Fatalf("fast D = %v", props)
	}
}

func TestExploreInsertValidation(t *testing.T) {
	q, _ := buildLog(t, model.STNM, "AB")
	if _, err := q.ExploreInsertAccurate(context.Background(), nil, 0, nil, ExploreOptions{}); !errors.Is(err, ErrShortPattern) {
		t.Fatal("empty pattern accepted")
	}
	if _, err := q.ExploreInsertAccurate(context.Background(), pattern("AB"), 3, nil, ExploreOptions{}); !errors.Is(err, ErrBadPosition) {
		t.Fatal("bad position accepted")
	}
	if _, err := q.ExploreInsertFast(context.Background(), pattern("AB"), -1, nil, ExploreOptions{}); !errors.Is(err, ErrBadPosition) {
		t.Fatal("negative position accepted")
	}
}

func TestExploreInsertCandidateIntersection(t *testing.T) {
	// Y follows A (trace AYX) but never precedes B; W precedes B (WB) but
	// never follows A; only M does both (AMB).
	q, _ := buildLog(t, model.STNM, "AYX", "WB", "AMB")
	props, err := q.ExploreInsertAccurate(context.Background(), pattern("AB"), 1, nil, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 1 || props[0].Event != act('M') {
		t.Fatalf("intersection failed: %v", props)
	}
}

// TestInsertCandidatesMatchBruteForce: on random logs over 2–4 activities,
// the candidates at every position of every short pattern are exactly the
// activities x with (p[pos-1], x) and (x, p[pos]) among the pairs that
// pairs.Extract finds in some trace.
func TestInsertCandidatesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for iter := 0; iter < 40; iter++ {
		policy := model.STNM
		if iter%2 == 1 {
			policy = model.SC
		}
		k := 2 + rng.Intn(3)
		alphabet := pattern("ABCD"[:k])
		traces := make([]string, 1+rng.Intn(8))
		for i := range traces {
			traces[i] = randomTraces(rng, 1, 1+rng.Intn(8), k)[0]
		}
		q, _ := buildLog(t, policy, traces...)

		occurs := map[model.PairKey]bool{}
		for _, s := range traces {
			evs := make([]model.TraceEvent, len(s))
			for i, c := range []byte(s) {
				evs[i] = model.TraceEvent{Activity: act(c), TS: model.Timestamp(i + 1)}
			}
			for key, occ := range pairs.Extract(evs, policy, pairs.Indexing) {
				if len(occ) > 0 {
					occurs[key] = true
				}
			}
		}

		var patterns []model.Pattern
		for _, a := range alphabet {
			patterns = append(patterns, model.Pattern{a})
			for _, b := range alphabet {
				patterns = append(patterns, model.Pattern{a, b}, model.Pattern{a, b, alphabet[rng.Intn(k)]})
			}
		}
		for _, p := range patterns {
			for pos := 0; pos <= len(p); pos++ {
				var want []model.ActivityID
				for _, x := range alphabet {
					if (pos == 0 || occurs[model.NewPairKey(p[pos-1], x)]) &&
						(pos == len(p) || occurs[model.NewPairKey(x, p[pos])]) {
						want = append(want, x)
					}
				}
				cands, err := q.insertCandidates(context.Background(), p, pos, alphabet)
				if err != nil {
					t.Fatal(err)
				}
				var got []model.ActivityID
				for _, c := range cands {
					got = append(got, c.event)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v traces %q: candidates of %v at %d = %v, want %v", policy, traces, p, pos, got, want)
				}
			}
		}
	}
}

func TestExploreInsertTimeConstraint(t *testing.T) {
	tb := storageWith(t, []model.Event{
		{Trace: 1, Activity: act('A'), TS: 1}, {Trace: 1, Activity: act('B'), TS: 2}, {Trace: 1, Activity: act('C'), TS: 3},
		{Trace: 2, Activity: act('A'), TS: 1}, {Trace: 2, Activity: act('D'), TS: 500}, {Trace: 2, Activity: act('C'), TS: 1000},
	})
	q := NewProcessor(tb)
	props, err := q.ExploreInsertAccurate(context.Background(), pattern("AC"), 1, nil, ExploreOptions{MaxAvgGap: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 1 || props[0].Event != act('B') {
		t.Fatalf("constraint failed: %v", props)
	}
}

func TestExploreInsertHybrid(t *testing.T) {
	q, _ := buildLog(t, model.STNM, "ABC", "ABC", "ADC", "AEC", "AEC", "AEC")
	// topK=0 degenerates to the fast flavor.
	fast, _ := q.ExploreInsertFast(context.Background(), pattern("AC"), 1, nil, ExploreOptions{})
	hyb0, err := q.ExploreInsertHybrid(context.Background(), pattern("AC"), 1, nil, ExploreOptions{TopK: 0})
	if err != nil || !reflect.DeepEqual(fast, hyb0) {
		t.Fatalf("topK=0: %v vs %v (%v)", hyb0, fast, err)
	}
	// Large topK matches the accurate flavor.
	acc, _ := q.ExploreInsertAccurate(context.Background(), pattern("AC"), 1, nil, ExploreOptions{})
	hybAll, err := q.ExploreInsertHybrid(context.Background(), pattern("AC"), 1, nil, ExploreOptions{TopK: 100})
	if err != nil || !reflect.DeepEqual(acc, hybAll) {
		t.Fatalf("topK=all:\nhyb %v\nacc %v (%v)", hybAll, acc, err)
	}
	// Intermediate topK: full ranking, exactly k exact entries.
	hyb1, err := q.ExploreInsertHybrid(context.Background(), pattern("AC"), 1, nil, ExploreOptions{TopK: 1})
	if err != nil || len(hyb1) != len(fast) {
		t.Fatalf("topK=1: %v %v", hyb1, err)
	}
	exact := 0
	for _, p := range hyb1 {
		if p.Exact {
			exact++
		}
	}
	if exact != 1 {
		t.Fatalf("re-checked %d, want 1: %v", exact, hyb1)
	}
}
