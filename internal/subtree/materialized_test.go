package subtree

import (
	"math/rand"
	"reflect"
	"testing"

	"seqlog/internal/model"
)

func TestMaterializedMatchesLogIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 20; iter++ {
		var traces []string
		for i := 0; i < 6; i++ {
			n := 3 + rng.Intn(30)
			s := make([]byte, n)
			for j := range s {
				s[j] = byte('A' + rng.Intn(3))
			}
			traces = append(traces, string(s))
		}
		log := makeLog(traces...)
		fast := BuildLogIndex(log)
		slow := BuildMaterialized(log)

		if slow.NumSubtrees() != log.NumEvents() {
			t.Fatalf("subtree space = %d, want %d", slow.NumSubtrees(), log.NumEvents())
		}
		for plen := 1; plen <= 4; plen++ {
			p := make(model.Pattern, plen)
			for j := range p {
				p[j] = model.ActivityID(byte('A' + rng.Intn(3)))
			}
			a, b := fast.Detect(p), slow.Detect(p)
			if len(a) == 0 && len(b) == 0 {
				continue
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("iter %d pattern %v: materialized disagrees\nfast %v\nslow %v", iter, p, a, b)
			}
			if !reflect.DeepEqual(fast.DetectTraces(p), slow.DetectTraces(p)) {
				t.Fatalf("iter %d: trace sets disagree", iter)
			}
			ca, cb := fast.Continue(p), slow.Continue(p)
			if len(ca) != 0 || len(cb) != 0 {
				if !reflect.DeepEqual(ca, cb) {
					t.Fatalf("iter %d: continuations disagree: %v vs %v", iter, ca, cb)
				}
			}
		}
	}
}

func TestMaterializedEdgeCases(t *testing.T) {
	log := makeLog("AB")
	ix := BuildMaterialized(log)
	if ix.Detect(nil) != nil {
		t.Fatal("empty pattern matched")
	}
	if ix.Continue(nil) != nil {
		t.Fatal("empty pattern continued")
	}
	// Pattern at the end of a trace has no continuation.
	if got := ix.Continue(acts("AB")); len(got) != 0 {
		t.Fatalf("end-of-trace continuation: %v", got)
	}
	if got := ix.Continue(acts("A")); len(got) != 1 || got[0].Event != model.ActivityID('B') {
		t.Fatalf("Continue(A) = %v", got)
	}
}

func TestLessTokens(t *testing.T) {
	cases := []struct {
		a, b []int32
		want bool
	}{
		{[]int32{1}, []int32{2}, true},
		{[]int32{2}, []int32{1}, false},
		{[]int32{1}, []int32{1, 1}, true},
		{[]int32{1, 1}, []int32{1}, false},
		{[]int32{1, 2}, []int32{1, 2}, false},
		{nil, []int32{1}, true},
	}
	for _, c := range cases {
		if got := lessTokens(c.a, c.b); got != c.want {
			t.Fatalf("lessTokens(%v, %v) = %v", c.a, c.b, got)
		}
	}
}
