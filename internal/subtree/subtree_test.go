package subtree

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"seqlog/internal/model"
	"seqlog/internal/query"
)

func acts(s string) []model.ActivityID {
	out := make([]model.ActivityID, len(s))
	for i, c := range []byte(s) {
		out[i] = model.ActivityID(c)
	}
	return out
}

func makeLog(traces ...string) *model.Log {
	l := model.NewLog()
	for ti, s := range traces {
		tr := &model.Trace{ID: model.TraceID(ti + 1)}
		for i, c := range []byte(s) {
			tr.Append(model.ActivityID(c), model.Timestamp(i+1))
		}
		l.Traces = append(l.Traces, tr)
	}
	return l
}

func TestSuffixArraySortedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(200)
		tokens := make([]int32, n)
		for i := range tokens {
			tokens[i] = int32(rng.Intn(5))
		}
		sa := buildSuffixArray(tokens)
		if len(sa) != n {
			t.Fatalf("sa length %d != %d", len(sa), n)
		}
		seen := make(map[int32]bool)
		for _, p := range sa {
			if seen[p] {
				t.Fatalf("duplicate position %d", p)
			}
			seen[p] = true
		}
		for i := 1; i < n; i++ {
			if !suffixLess(tokens, sa[i-1], sa[i]) {
				t.Fatalf("iter %d: suffixes %d and %d out of order", iter, sa[i-1], sa[i])
			}
		}
	}
}

// suffixLess reports strict lexicographic order of two distinct suffixes.
func suffixLess(tokens []int32, a, b int32) bool {
	for {
		ai, bi := int(a), int(b)
		if ai >= len(tokens) {
			return true // shorter suffix is smaller (and they are distinct)
		}
		if bi >= len(tokens) {
			return false
		}
		if tokens[ai] != tokens[bi] {
			return tokens[ai] < tokens[bi]
		}
		a++
		b++
	}
}

func TestSearchRange(t *testing.T) {
	tokens := []int32{2, 1, 2, 1, 2}
	sa := buildSuffixArray(tokens)
	lo, hi := searchRange(tokens, sa, []int32{1, 2})
	if hi-lo != 2 {
		t.Fatalf("occurrences of [1 2]: %d", hi-lo)
	}
	lo, hi = searchRange(tokens, sa, []int32{2, 2})
	if hi != lo {
		t.Fatalf("phantom occurrence of [2 2]")
	}
	// A pattern longer than any suffix match.
	lo, hi = searchRange(tokens, sa, []int32{1, 2, 1, 2, 9})
	if hi != lo {
		t.Fatal("phantom long match")
	}
}

func TestTraceTreeSharesPrefixes(t *testing.T) {
	tree := NewTraceTree()
	tree.Insert(acts("ABC"))
	tree.Insert(acts("ABD"))
	// A, B shared; C and D distinct: 4 nodes.
	if tree.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d", tree.NumNodes())
	}
	tokens, nodes := tree.Preorder()
	if len(tokens) != 2*tree.NumNodes() || len(nodes) != len(tokens) {
		t.Fatalf("preorder length %d", len(tokens))
	}
	opens, closes := 0, 0
	for i, tok := range tokens {
		if tok == 0 {
			closes++
			if nodes[i] != nil {
				t.Fatal("close marker carries a node")
			}
		} else {
			opens++
			if nodes[i] == nil {
				t.Fatal("open token missing its node")
			}
		}
	}
	if opens != closes || opens != tree.NumNodes() {
		t.Fatalf("opens=%d closes=%d", opens, closes)
	}
}

func TestSubtreeIndexExactMatching(t *testing.T) {
	tree := NewTraceTree()
	tree.Insert(acts("ABC"))
	tree.Insert(acts("ABD"))
	tree.Insert(acts("XBC"))
	ix := BuildSubtreeIndex(tree)

	// The chain B->C occurs as an *exact* subtree only under X (where B has
	// the single child C); under A, B has children C and D, so the subtree
	// differs.
	q := NewTraceTree()
	q.Insert(acts("BC"))
	if got := ix.Occurrences(Serialize(q)); got != 1 {
		t.Fatalf("exact occurrences of chain BC = %d, want 1", got)
	}

	// The leaf C occurs twice (under A->B and under X->B).
	qc := NewTraceTree()
	qc.Insert(acts("C"))
	if got := ix.Occurrences(Serialize(qc)); got != 2 {
		t.Fatalf("occurrences of leaf C = %d, want 2", got)
	}

	// The full branching subtree rooted at B (children C and D) occurs once.
	qb := NewTraceTree()
	qb.Insert(acts("BC"))
	qb.Insert(acts("BD"))
	if got := ix.Occurrences(Serialize(qb)); got != 1 {
		t.Fatalf("occurrences of branching subtree = %d, want 1", got)
	}

	if ix.Occurrences(nil) != 0 {
		t.Fatal("empty query matched")
	}
}

func TestLogIndexDetect(t *testing.T) {
	log := makeLog("ABAB", "BAB", "CCC")
	ix := BuildLogIndex(log)

	occ := ix.Detect(acts("AB"))
	want := []Occurrence{
		{Trace: 1, Timestamps: []model.Timestamp{1, 2}},
		{Trace: 1, Timestamps: []model.Timestamp{3, 4}},
		{Trace: 2, Timestamps: []model.Timestamp{2, 3}},
	}
	if !reflect.DeepEqual(occ, want) {
		t.Fatalf("Detect(AB) = %v", occ)
	}
	if got := ix.DetectTraces(acts("AB")); !reflect.DeepEqual(got, []model.TraceID{1, 2}) {
		t.Fatalf("DetectTraces = %v", got)
	}
	// Matches never span trace boundaries.
	if got := ix.Detect(acts("BB")); len(got) != 0 {
		t.Fatalf("cross-trace match: %v", got)
	}
	if got := ix.Detect(nil); got != nil {
		t.Fatal("empty pattern matched")
	}
	if ix.NumSuffixes() != log.NumEvents()+log.NumTraces() {
		t.Fatalf("NumSuffixes = %d", ix.NumSuffixes())
	}
}

// TestLogIndexMatchesQueryReference cross-checks the suffix-array detection
// against the SC reference matcher of the query package on random logs.
func TestLogIndexMatchesQueryReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for iter := 0; iter < 30; iter++ {
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
		ix := BuildLogIndex(log)
		for plen := 1; plen <= 4; plen++ {
			p := make(model.Pattern, plen)
			for j := range p {
				p[j] = model.ActivityID(byte('A' + rng.Intn(3)))
			}
			got := ix.Detect(p)
			var want []Occurrence
			for _, tr := range log.Traces {
				for _, ts := range query.MatchTrace(tr.Events, p, model.SC) {
					want = append(want, Occurrence{Trace: tr.ID, Timestamps: ts})
				}
			}
			sort.Slice(want, func(a, b int) bool {
				if want[a].Trace != want[b].Trace {
					return want[a].Trace < want[b].Trace
				}
				return want[a].Timestamps[0] < want[b].Timestamps[0]
			})
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d pattern %v:\ngot  %v\nwant %v", iter, p, got, want)
			}
		}
	}
}

func TestLogIndexContinue(t *testing.T) {
	log := makeLog("ABC", "ABC", "ABD", "AB")
	ix := BuildLogIndex(log)
	props := ix.Continue(acts("AB"))
	want := []Proposition{
		{Event: model.ActivityID('C'), Count: 2},
		{Event: model.ActivityID('D'), Count: 1},
	}
	if !reflect.DeepEqual(props, want) {
		t.Fatalf("Continue = %v", props)
	}
	if got := ix.Continue(nil); got != nil {
		t.Fatal("empty pattern continued")
	}
	if got := ix.Continue(acts("ZZ")); len(got) != 0 {
		t.Fatalf("absent pattern continued: %v", got)
	}
}
