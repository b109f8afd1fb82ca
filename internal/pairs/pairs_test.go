package pairs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"seqlog/internal/model"
)

// trace builds a model trace from a compact string: each byte is an activity
// (interned per byte) and the timestamp is the 1-based position, matching the
// convention of the paper's Table 3 worked example.
func trace(s string) []model.TraceEvent {
	evs := make([]model.TraceEvent, len(s))
	for i, c := range []byte(s) {
		evs[i] = model.TraceEvent{Activity: model.ActivityID(c), TS: model.Timestamp(i + 1)}
	}
	return evs
}

func key(a, b byte) model.PairKey {
	return model.NewPairKey(model.ActivityID(a), model.ActivityID(b))
}

func occs(ts ...model.Timestamp) []Occurrence {
	out := make([]Occurrence, 0, len(ts)/2)
	for i := 0; i+1 < len(ts); i += 2 {
		out = append(out, Occurrence{TsA: ts[i], TsB: ts[i+1]})
	}
	return out
}

var stnmMethods = []Method{Parsing, Indexing, State}

// TestTable3 reproduces the paper's Table 3 worked example exactly: trace
// <(A,1),(A,2),(B,3),(A,4),(B,5),(A,6)> under both policies.
func TestTable3(t *testing.T) {
	evs := trace("AABABA")

	wantSC := Result{
		key('A', 'A'): occs(1, 2),
		key('A', 'B'): occs(2, 3, 4, 5),
		key('B', 'A'): occs(3, 4, 5, 6),
	}
	if got := ExtractSC(evs); !Equal(got, wantSC) {
		t.Fatalf("SC mismatch:\ngot  %v\nwant %v", got, wantSC)
	}

	wantSTNM := Result{
		key('A', 'A'): occs(1, 2, 4, 6),
		key('B', 'A'): occs(3, 4, 5, 6),
		key('B', 'B'): occs(3, 5),
		key('A', 'B'): occs(1, 3, 4, 5),
	}
	for _, m := range stnmMethods {
		if got := ExtractSTNM(evs, m); !Equal(got, wantSTNM) {
			t.Fatalf("%v mismatch:\ngot  %v\nwant %v", m, got, wantSTNM)
		}
	}
	if got := ExtractReference(evs); !Equal(got, wantSTNM) {
		t.Fatalf("reference mismatch:\ngot  %v\nwant %v", got, wantSTNM)
	}
}

// TestPaperIntroExample checks the paper's §2.1 AAB example: in <AAABAACB>,
// STNM pair joins rely on (A,A) and (A,B); verify the pair sets directly.
func TestPaperIntroExample(t *testing.T) {
	evs := trace("AAABAACB")
	want := Result{
		key('A', 'A'): occs(1, 2, 3, 5),
		key('A', 'B'): occs(1, 4, 5, 8),
		key('A', 'C'): occs(1, 7),
		key('B', 'A'): occs(4, 5),
		key('B', 'C'): occs(4, 7),
		key('B', 'B'): occs(4, 8),
		key('C', 'B'): occs(7, 8),
	}
	for _, m := range stnmMethods {
		if got := ExtractSTNM(evs, m); !Equal(got, want) {
			t.Fatalf("%v mismatch:\ngot  %v\nwant %v", m, got, want)
		}
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	for _, m := range stnmMethods {
		if got := ExtractSTNM(nil, m); len(got) != 0 {
			t.Fatalf("%v on empty trace: %v", m, got)
		}
		if got := ExtractSTNM(trace("A"), m); len(got) != 0 {
			t.Fatalf("%v on singleton: %v", m, got)
		}
	}
	if got := ExtractSC(trace("A")); len(got) != 0 {
		t.Fatalf("SC on singleton: %v", got)
	}
}

func TestTwoEvents(t *testing.T) {
	want := Result{key('A', 'B'): occs(1, 2)}
	if got := ExtractSC(trace("AB")); !Equal(got, want) {
		t.Fatalf("SC: %v", got)
	}
	for _, m := range stnmMethods {
		if got := ExtractSTNM(trace("AB"), m); !Equal(got, want) {
			t.Fatalf("%v: %v", m, got)
		}
	}
}

func TestAllSameActivity(t *testing.T) {
	// AAAA: self pairs (1,2),(3,4) under both policies... SC pairs are
	// (1,2),(2,3),(3,4) since consecutive pairs may share events.
	evs := trace("AAAA")
	wantSC := Result{key('A', 'A'): occs(1, 2, 2, 3, 3, 4)}
	if got := ExtractSC(evs); !Equal(got, wantSC) {
		t.Fatalf("SC: %v", got)
	}
	wantSTNM := Result{key('A', 'A'): occs(1, 2, 3, 4)}
	for _, m := range stnmMethods {
		if got := ExtractSTNM(evs, m); !Equal(got, wantSTNM) {
			t.Fatalf("%v: %v", m, got)
		}
	}
}

func TestSCDoesNotBridgeGaps(t *testing.T) {
	// ABA: SC has no (B,B), and (A,A) never occurs.
	got := ExtractSC(trace("ABA"))
	if _, ok := got[key('A', 'A')]; ok {
		t.Fatal("SC bridged a gap for (A,A)")
	}
	want := Result{key('A', 'B'): occs(1, 2), key('B', 'A'): occs(2, 3)}
	if !Equal(got, want) {
		t.Fatalf("SC: %v", got)
	}
}

func TestNoOverlapInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		evs := randomTrace(rng, 2+rng.Intn(6), 1+rng.Intn(60))
		for _, m := range stnmMethods {
			res := ExtractSTNM(evs, m)
			for k, occ := range res {
				for i := range occ {
					if occ[i].TsA >= occ[i].TsB {
						t.Fatalf("%v pair %v: TsA %d >= TsB %d", m, k, occ[i].TsA, occ[i].TsB)
					}
					if i > 0 && occ[i].TsA <= occ[i-1].TsB {
						t.Fatalf("%v pair %v overlaps: %v", m, k, occ)
					}
				}
			}
		}
	}
}

func randomTrace(rng *rand.Rand, alphabet, n int) []model.TraceEvent {
	evs := make([]model.TraceEvent, n)
	for i := range evs {
		evs[i] = model.TraceEvent{
			Activity: model.ActivityID(rng.Intn(alphabet)),
			TS:       model.Timestamp(i + 1),
		}
	}
	return evs
}

// TestMethodsAgreeProperty is the core property test: on random traces all
// three STNM flavors agree with each other and with the naive reference.
func TestMethodsAgreeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		alphabet := 1 + rng.Intn(8)
		n := rng.Intn(80)
		evs := randomTrace(rng, alphabet, n)
		want := ExtractReference(evs)
		for _, m := range stnmMethods {
			got := ExtractSTNM(evs, m)
			if !Equal(got, want) {
				t.Fatalf("iter %d (alphabet=%d n=%d): %v disagrees with reference\ntrace: %v\ngot:  %v\nwant: %v",
					iter, alphabet, n, m, evs, got, want)
			}
		}
	}
}

// TestMethodsAgreeLargeAlphabet stresses the regime l ≈ n where the paper
// says Parsing should be preferred over Indexing.
func TestMethodsAgreeLargeAlphabet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 50; iter++ {
		evs := randomTrace(rng, 100, 120)
		want := ExtractReference(evs)
		for _, m := range stnmMethods {
			if got := ExtractSTNM(evs, m); !Equal(got, want) {
				t.Fatalf("iter %d: %v disagrees with reference", iter, m)
			}
		}
	}
}

// TestStateIsIncremental verifies the key selling point of the State method:
// folding a prefix, finalizing, folding the rest and finalizing again yields
// the same result as a single batch fold.
func TestStateIsIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 100; iter++ {
		evs := randomTrace(rng, 1+rng.Intn(5), 2+rng.Intn(60))
		cut := rng.Intn(len(evs))

		s := NewStateExtractor()
		for _, ev := range evs[:cut] {
			s.Add(ev)
		}
		_ = s.Finalize() // mid-stream snapshot must not disturb the state
		for _, ev := range evs[cut:] {
			s.Add(ev)
		}
		got := s.Finalize()
		want := ExtractReference(evs)
		if !Equal(got, want) {
			t.Fatalf("iter %d: incremental state diverged\ngot  %v\nwant %v", iter, got, want)
		}
	}
}

func TestSCOccurrenceCount(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 100; iter++ {
		n := rng.Intn(50)
		evs := randomTrace(rng, 1+rng.Intn(5), n)
		res := ExtractSC(evs)
		want := 0
		if n > 1 {
			want = n - 1
		}
		if got := NumOccurrences(res); got != want {
			t.Fatalf("SC occurrence count = %d, want %d", got, want)
		}
	}
}

func TestExtractDispatch(t *testing.T) {
	evs := trace("AAB")
	if !Equal(Extract(evs, model.SC, Indexing), ExtractSC(evs)) {
		t.Fatal("Extract(SC) != ExtractSC")
	}
	if !Equal(Extract(evs, model.STNM, State), ExtractSTNM(evs, State)) {
		t.Fatal("Extract(STNM) != ExtractSTNM")
	}
}

func TestEqual(t *testing.T) {
	a := Result{key('A', 'B'): occs(1, 2)}
	b := Result{key('A', 'B'): occs(1, 2)}
	if !Equal(a, b) {
		t.Fatal("identical results reported unequal")
	}
	c := Result{key('A', 'B'): occs(1, 3)}
	if Equal(a, c) {
		t.Fatal("different occurrences reported equal")
	}
	d := Result{key('A', 'C'): occs(1, 2)}
	if Equal(a, d) {
		t.Fatal("different keys reported equal")
	}
	if Equal(a, Result{}) {
		t.Fatal("different sizes reported equal")
	}
}

func TestMethodString(t *testing.T) {
	if Parsing.String() != "Parsing" || Indexing.String() != "Indexing" || State.String() != "State" {
		t.Fatal("method names wrong")
	}
	if Method(9).String() != "Method(?)" {
		t.Fatal("unknown method should still render")
	}
}

func BenchmarkExtract(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	evs := randomTrace(rng, 50, 1000)
	b.Run("SC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ExtractSC(evs)
		}
	})
	for _, m := range stnmMethods {
		b.Run("STNM-"+m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ExtractSTNM(evs, m)
			}
		})
	}
}

// TestQuickMethodsAgree drives the flavor-agreement property through
// testing/quick's input generation (complementing the seeded loops above).
func TestQuickMethodsAgree(t *testing.T) {
	f := func(raw []uint8) bool {
		evs := make([]model.TraceEvent, len(raw))
		for i, b := range raw {
			evs[i] = model.TraceEvent{
				Activity: model.ActivityID(b % 6),
				TS:       model.Timestamp(i + 1),
			}
		}
		want := ExtractReference(evs)
		return Equal(ExtractSTNM(evs, Parsing), want) &&
			Equal(ExtractSTNM(evs, Indexing), want) &&
			Equal(ExtractSTNM(evs, State), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
