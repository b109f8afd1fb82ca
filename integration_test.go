package seqlog

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"seqlog/internal/eventlog"
	"seqlog/internal/loggen"
	"seqlog/internal/model"
	"seqlog/internal/sase"
	"seqlog/internal/subtree"
	"seqlog/internal/textsearch"
)

// TestPipelineEndToEnd exercises the full pipeline: generate a process-like
// log, serialise it to XES, ingest through the public API into a durable
// engine, and cross-check every query family against the three independent
// baselines — the strongest correctness argument in the repository, since
// the five implementations share no code paths.
func TestPipelineEndToEnd(t *testing.T) {
	spec := loggen.DatasetSpec{
		Name: "integration", Traces: 120, Activities: 8,
		MeanLen: 12, MinLen: 2, MaxLen: 40, Seed: 99,
	}
	log := spec.Generate(1)

	// Round-trip through XES, as a deployment would.
	var buf bytes.Buffer
	if err := eventlog.WriteXES(&buf, log); err != nil {
		t.Fatal(err)
	}

	eng, err := Open(Config{Policy: "STNM", Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	st, err := eng.IngestXES(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != log.NumEvents() || st.Traces != log.NumTraces() {
		t.Fatalf("ingest stats %+v vs log %d/%d", st, log.NumEvents(), log.NumTraces())
	}

	// Independent baselines over the same in-memory log.
	es := textsearch.NewIndex(textsearch.Options{})
	if err := es.IndexLog(log); err != nil {
		t.Fatal(err)
	}
	cep := sase.NewEngine(log)
	mat := subtree.BuildMaterialized(log)

	names := log.Alphabet.Names()
	toNames := func(p model.Pattern) []string {
		out := make([]string, len(p))
		for i, a := range p {
			out[i] = names[a]
		}
		return out
	}

	// Sample existing patterns of lengths 2..5 from the traces.
	var patterns []model.Pattern
	for _, tr := range log.Traces {
		for plen := 2; plen <= 5 && plen <= tr.Len(); plen++ {
			p := make(model.Pattern, plen)
			for i := 0; i < plen; i++ {
				p[i] = tr.Events[i].Activity
			}
			patterns = append(patterns, p)
		}
		if len(patterns) > 40 {
			break
		}
	}

	for _, p := range patterns {
		pNames := toNames(p)

		// The exact per-trace scan agrees with SASE's STNM semantics.
		scan, err := eng.Detect(context.Background(), pNames, DetectOptions{Scan: true})
		if err != nil {
			t.Fatal(err)
		}
		cepRes, err := cep.Evaluate(sase.Query{Pattern: p, Strategy: model.STNM})
		if err != nil {
			t.Fatal(err)
		}
		if len(scan) != len(cepRes.Matches) {
			t.Fatalf("pattern %v: scan %d matches, sase %d", pNames, len(scan), len(cepRes.Matches))
		}

		// Elasticsearch span-near agrees with the scan too.
		esMatches := es.SpanNear(p)
		if len(esMatches) != len(scan) {
			t.Fatalf("pattern %v: es %d matches, scan %d", pNames, len(esMatches), len(scan))
		}

		// The pair-index join returns a subset of the scan's traces.
		joined, err := detectTraces(eng, pNames)
		if err != nil {
			t.Fatal(err)
		}
		scanTraces := map[int64]bool{}
		for _, m := range scan {
			scanTraces[m.Trace] = true
		}
		for _, id := range joined {
			if !scanTraces[id] {
				t.Fatalf("pattern %v: join found trace %d the scan did not", pNames, id)
			}
		}

		// The statistics upper bound really bounds the exact count.
		stats, err := eng.Stats(context.Background(), pNames, StatsOptions{})
		if err != nil {
			t.Fatal(err)
		}
		exact, err := eng.Detect(context.Background(), pNames, DetectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(exact)) > stats.MaxCompletions {
			t.Fatalf("pattern %v: %d completions exceed bound %d", pNames, len(exact), stats.MaxCompletions)
		}
	}

	// SC: the engine-under-SC agrees exactly with the suffix-array
	// baseline on occurrences.
	scEng, err := Open(Config{Policy: "SC"})
	if err != nil {
		t.Fatal(err)
	}
	defer scEng.Close()
	var buf2 bytes.Buffer
	if err := eventlog.WriteXES(&buf2, log); err != nil {
		t.Fatal(err)
	}
	if _, err := scEng.IngestXES(&buf2); err != nil {
		t.Fatal(err)
	}
	for _, p := range patterns {
		got, err := scEng.Detect(context.Background(), toNames(p), DetectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := mat.Detect(p)
		if len(got) != len(want) {
			t.Fatalf("SC pattern %v: engine %d, subtree %d", toNames(p), len(got), len(want))
		}
		for i := range want {
			if got[i].Trace != int64(want[i].Trace) {
				t.Fatalf("SC pattern %v: occurrence %d trace mismatch", toNames(p), i)
			}
			wantTimes := make([]int64, len(want[i].Timestamps))
			for j, tts := range want[i].Timestamps {
				wantTimes[j] = int64(tts)
			}
			if !reflect.DeepEqual(got[i].Times, wantTimes) {
				t.Fatalf("SC pattern %v: occurrence %d timestamps differ", toNames(p), i)
			}
		}
	}
}

// TestContinuationConsistency: the continuation ranking of the engine and
// the subtree baseline agree on the top SC successor of frequent prefixes.
func TestContinuationConsistency(t *testing.T) {
	log := loggen.MarkovLog(loggen.MarkovLogConfig{
		Traces: 200, Activities: 6, MeanLen: 10, MinLen: 2, MaxLen: 30, Seed: 123,
	})
	mat := subtree.BuildMaterialized(log)

	eng, err := Open(Config{Policy: "SC"})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var buf bytes.Buffer
	if err := eventlog.WriteXES(&buf, log); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.IngestXES(&buf); err != nil {
		t.Fatal(err)
	}

	names := log.Alphabet.Names()
	checked := 0
	for _, tr := range log.Traces[:20] {
		if tr.Len() < 3 {
			continue
		}
		p := model.Pattern{tr.Events[0].Activity, tr.Events[1].Activity}
		props, err := eng.Explore(context.Background(), []string{names[p[0]], names[p[1]]}, ExploreOptions{Mode: Accurate})
		if err != nil {
			t.Fatal(err)
		}
		base := mat.Continue(p)
		if len(props) == 0 || len(base) == 0 {
			continue
		}
		// Completion counts for the top baseline successor must agree
		// with the engine's exact count for that successor.
		top := base[0]
		for _, pr := range props {
			if pr.Activity == names[top.Event] {
				if pr.Completions != int64(top.Count) {
					t.Fatalf("prefix %v successor %s: engine %d vs subtree %d",
						p, pr.Activity, pr.Completions, top.Count)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("degenerate test: nothing compared")
	}
}
