package model

import (
	"testing"
	"testing/quick"
)

func TestAlphabetIntern(t *testing.T) {
	a := NewAlphabet()
	idA := a.ID("A")
	idB := a.ID("B")
	if idA == idB {
		t.Fatalf("distinct names share id %d", idA)
	}
	if got := a.ID("A"); got != idA {
		t.Fatalf("re-interning A: got %d want %d", got, idA)
	}
	if a.Len() != 2 {
		t.Fatalf("Len = %d, want 2", a.Len())
	}
	if a.Name(idA) != "A" || a.Name(idB) != "B" {
		t.Fatalf("Name round trip failed: %q %q", a.Name(idA), a.Name(idB))
	}
	if a.Name(ActivityID(99)) != "?" {
		t.Fatalf("unknown id should render as ?")
	}
	if _, ok := a.Lookup("C"); ok {
		t.Fatal("Lookup of unseen name reported ok")
	}
	names := a.Names()
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Fatalf("Names = %v", names)
	}
}

func TestAlphabetConcurrent(t *testing.T) {
	a := NewAlphabet()
	done := make(chan map[string]ActivityID, 8)
	names := []string{"A", "B", "C", "D", "E"}
	for w := 0; w < 8; w++ {
		go func() {
			got := make(map[string]ActivityID)
			for i := 0; i < 200; i++ {
				for _, n := range names {
					got[n] = a.ID(n)
				}
			}
			done <- got
		}()
	}
	first := <-done
	for w := 1; w < 8; w++ {
		got := <-done
		for n, id := range got {
			if first[n] != id {
				t.Fatalf("worker disagreement for %s: %d vs %d", n, first[n], id)
			}
		}
	}
	if a.Len() != len(names) {
		t.Fatalf("Len = %d, want %d", a.Len(), len(names))
	}
}

func TestTraceSortAndActivities(t *testing.T) {
	tr := &Trace{ID: 7}
	tr.Append(2, 30)
	tr.Append(1, 10)
	tr.Append(1, 20)
	tr.Sort()
	want := []Timestamp{10, 20, 30}
	for i, ev := range tr.Events {
		if ev.TS != want[i] {
			t.Fatalf("event %d ts = %d, want %d", i, ev.TS, want[i])
		}
	}
	acts := tr.Activities()
	if len(acts) != 2 {
		t.Fatalf("Activities = %v, want 2 distinct", acts)
	}
}

func TestTraceSortStable(t *testing.T) {
	tr := &Trace{ID: 1}
	tr.Append(5, 10)
	tr.Append(6, 10) // tie: arrival order must be kept
	tr.Sort()
	if tr.Events[0].Activity != 5 || tr.Events[1].Activity != 6 {
		t.Fatalf("tie broke arrival order: %v", tr.Events)
	}
}

func TestTraceClone(t *testing.T) {
	tr := &Trace{ID: 3}
	tr.Append(1, 1)
	cp := tr.Clone()
	cp.Append(2, 2)
	if tr.Len() != 1 || cp.Len() != 2 {
		t.Fatalf("clone aliases original: %d %d", tr.Len(), cp.Len())
	}
}

func TestLogStats(t *testing.T) {
	l := NewLog()
	a := l.Alphabet.ID("A")
	b := l.Alphabet.ID("B")
	t1 := &Trace{ID: 1}
	t1.Append(a, 1)
	t1.Append(b, 2)
	t2 := &Trace{ID: 2}
	t2.Append(b, 1)
	l.Traces = append(l.Traces, t1, t2)

	if l.NumEvents() != 3 {
		t.Fatalf("NumEvents = %d", l.NumEvents())
	}
	if l.NumTraces() != 2 {
		t.Fatalf("NumTraces = %d", l.NumTraces())
	}
	if l.MaxTraceLen() != 2 {
		t.Fatalf("MaxTraceLen = %d", l.MaxTraceLen())
	}
	if got := l.MeanTraceLen(); got != 1.5 {
		t.Fatalf("MeanTraceLen = %v", got)
	}
	if l.Trace(2) != t2 || l.Trace(9) != nil {
		t.Fatal("Trace lookup failed")
	}
	evs := l.Events()
	if len(evs) != 3 || evs[0].Trace != 1 || evs[2].Trace != 2 {
		t.Fatalf("Events = %v", evs)
	}
}

func TestEmptyLogStats(t *testing.T) {
	l := NewLog()
	if l.MeanTraceLen() != 0 || l.MaxTraceLen() != 0 || l.NumEvents() != 0 {
		t.Fatal("empty log stats should be zero")
	}
}

func TestPairKeyRoundTrip(t *testing.T) {
	f := func(a, b int32) bool {
		k := NewPairKey(ActivityID(a), ActivityID(b))
		return k.First() == ActivityID(a) && k.Second() == ActivityID(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPairKeyDistinct(t *testing.T) {
	if NewPairKey(1, 2) == NewPairKey(2, 1) {
		t.Fatal("(1,2) and (2,1) collide")
	}
}

func TestPatternHelpers(t *testing.T) {
	al := NewAlphabet()
	p := ParsePattern(al, []string{"A", "B", "A"})
	if len(p) != 3 || p[0] != p[2] || p[0] == p[1] {
		t.Fatalf("ParsePattern = %v", p)
	}
	if got := p.Strings(al); got[0] != "A" || got[1] != "B" || got[2] != "A" {
		t.Fatalf("Strings = %v", got)
	}
	if _, ok := LookupPattern(al, []string{"A", "Z"}); ok {
		t.Fatal("LookupPattern of unknown name should fail")
	}
	if q, ok := LookupPattern(al, []string{"B", "A"}); !ok || len(q) != 2 {
		t.Fatalf("LookupPattern = %v %v", q, ok)
	}
}

func TestPolicyParseAndString(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
	}{
		{"sc", SC}, {"STNM", STNM}, {"skip-till-next-match", STNM},
		{"stam", STAM}, {" strict ", SC},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Fatal("expected error for unknown policy")
	}
	if SC.String() != "SC" || STNM.String() != "STNM" || STAM.String() != "STAM" {
		t.Fatal("Policy.String mismatch")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy should still render")
	}
}
