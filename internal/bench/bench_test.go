package bench

import (
	"bytes"
	"strings"
	"testing"

	"seqlog/internal/loggen"
	"seqlog/internal/query"
)

// tinyRunner runs at a very small scale on two datasets so the full suite
// smoke-tests in seconds.
func tinyRunner(buf *bytes.Buffer) *Runner {
	return NewRunner(Config{
		Scale:        0.004,
		Workers:      2,
		BuildRepeats: 1,
		QueryRepeats: 1,
		Out:          buf,
		Datasets:     []string{"bpi_2013", "max_100"},
	})
}

func TestRunAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment smoke test")
	}
	var buf bytes.Buffer
	r := tinyRunner(&buf)
	if err := r.RunAll(); err != nil {
		t.Fatalf("RunAll: %v\noutput so far:\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"Table 4", "Figure 2", "Table 5", "Figure 3a", "Figure 3b", "Figure 3c",
		"Table 6", "Table 7", "Figure 4", "Table 8", "Figure 5", "Figure 6",
		"Figure 7", "recall", "incremental", "partitioned",
	} {
		if !strings.Contains(strings.ToLower(out), strings.ToLower(want)) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	r := tinyRunner(&buf)
	if err := r.Run("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestExperimentsListMatchesDispatch(t *testing.T) {
	var buf bytes.Buffer
	r := tinyRunner(&buf)
	// Every listed experiment must dispatch (run the two cheapest fully;
	// for the rest just check the name resolves by relying on RunAll's
	// coverage in the smoke test).
	for _, name := range []string{"table4", "figure2"} {
		if err := r.Run(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if len(Experiments()) != 15 {
		t.Fatalf("experiment count = %d", len(Experiments()))
	}
	// The system experiments moved to the benchmark module or were dropped
	// (joinorder went with the planner it measured); asking for one must
	// fail loudly, not run nothing.
	for _, name := range []string{"cancel", "ingest", "joinorder", "metrics-overhead", "netshard", "postings", "replica", "shards"} {
		if err := r.Run(name); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Fatalf("Run(%q) = %v, want the unknown-experiment error", name, err)
		}
	}
}

func TestSamplePatterns(t *testing.T) {
	log := loggen.MarkovLog(loggen.MarkovLogConfig{Traces: 50, Activities: 6, MeanLen: 10, MinLen: 3, MaxLen: 30, Seed: 1})
	ps := samplePatterns(log, 3, 25, 9)
	if len(ps) != 25 {
		t.Fatalf("patterns = %d", len(ps))
	}
	// Every sampled pattern occurs contiguously in some trace.
	for _, p := range ps {
		found := false
		for _, tr := range log.Traces {
		outer:
			for i := 0; i+len(p) <= tr.Len(); i++ {
				for j := range p {
					if tr.Events[i+j].Activity != p[j] {
						continue outer
					}
				}
				found = true
				break
			}
			if found {
				break
			}
		}
		if !found {
			t.Fatalf("sampled pattern %v does not occur", p)
		}
	}
	// Impossible length yields nothing.
	if got := samplePatterns(log, 1000, 5, 9); got != nil {
		t.Fatalf("oversized patterns = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	s := sortedCopy([]int{5, 1, 3})
	if s[0] != 1 || s[2] != 5 {
		t.Fatalf("sortedCopy = %v", s)
	}
	if percentile(s, 0) != 1 || percentile(s, 50) != 3 || percentile(s, 100) != 5 {
		t.Fatalf("percentiles: %d %d %d", percentile(s, 0), percentile(s, 50), percentile(s, 100))
	}
	if percentile(nil, 50) != 0 {
		t.Fatal("empty percentile")
	}
}

func TestProposalEventsFilterZero(t *testing.T) {
	props := []query.Proposal{
		{Event: 1, Completions: 2},
		{Event: 2, Completions: 0},
		{Event: 3, Completions: 1},
	}
	got := proposalEvents(props)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("proposalEvents = %v", got)
	}
	if proposalEvents(nil) != nil {
		t.Fatal("nil proposals should yield nil")
	}
}
