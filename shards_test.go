package seqlog

import (
	"context"

	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
)

// The differential oracle for horizontal sharding: a K-shard engine must be
// OBSERVABLY IDENTICAL to the single-store engine over the same log — same
// matches, same statistics, same rankings, byte for byte — for every query
// family. 1 vs 4 vs 7 shards covers the degenerate, power-of-two and prime
// cases of the routing hash; randomized multi-batch logs (with a period
// rotation mid-stream) exercise incremental dedup, cross-period merges and
// count aggregation across partial per-shard rows.

// oracleShardCounts are the shard counts compared against each other.
var oracleShardCounts = []int{1, 4, 7}

// oracleWorkload is one randomized log: ingestion batches (traces may span
// batch boundaries, so later batches extend stored traces) plus the pattern
// sets the query families are interrogated with.
type oracleWorkload struct {
	batches  [][]Event
	patterns [][]string // detection patterns (len >= 2)
	prefixes [][]string // continuation prefixes (len >= 1)
}

func oracleLog(seed int64) oracleWorkload {
	rng := rand.New(rand.NewSource(seed))
	acts := make([]string, 8)
	for i := range acts {
		acts[i] = fmt.Sprintf("act%d", i)
	}
	var (
		events []Event
		seqs   [][]string
	)
	for t := 0; t < 48; t++ {
		id := rng.Int63() // spread across the full id space: routing must not care
		ts := int64(rng.Intn(1000))
		n := 12 + rng.Intn(36)
		var names []string
		for j := 0; j < n; j++ {
			ts += int64(1 + rng.Intn(17))
			a := acts[rng.Intn(len(acts))]
			names = append(names, a)
			events = append(events, Event{Trace: id, Activity: a, Time: ts})
		}
		seqs = append(seqs, names)
	}

	var w oracleWorkload
	// Four batches; boundaries cut traces, exercising watermark dedup.
	for lo := 0; lo < len(events); lo += (len(events) + 3) / 4 {
		hi := lo + (len(events)+3)/4
		if hi > len(events) {
			hi = len(events)
		}
		w.batches = append(w.batches, events[lo:hi])
	}
	for i := 0; i < 12; i++ {
		s := seqs[rng.Intn(len(seqs))]
		n := 2 + rng.Intn(3)
		if n > len(s) {
			n = len(s)
		}
		at := rng.Intn(len(s) - n + 1)
		w.patterns = append(w.patterns, s[at:at+n])
		w.prefixes = append(w.prefixes, s[at:at+1+rng.Intn(n-1)])
	}
	// Unknown-activity and cross-trace patterns: the zero-result paths must
	// agree too.
	w.patterns = append(w.patterns,
		[]string{"never-seen", acts[0]},
		[]string{acts[0], acts[1], acts[2], acts[3]},
	)
	w.prefixes = append(w.prefixes, []string{acts[3]})
	return w
}

// oracleEngine is one labeled participant in a differential comparison. The
// first entry of a slice is the baseline the rest must match byte-for-byte.
type oracleEngine struct {
	name string
	eng  *Engine
}

// oracleIngest loads the workload into an engine the canonical way: two
// batches, a period rotation, then the remaining batches into the new
// partition.
func oracleIngest(t *testing.T, name string, eng *Engine, w oracleWorkload) {
	t.Helper()
	for bi, batch := range w.batches {
		if bi == 2 {
			if err := eng.RotatePeriod("p2"); err != nil {
				t.Fatalf("%s: rotate: %v", name, err)
			}
		}
		if _, err := eng.Ingest(batch); err != nil {
			t.Fatalf("%s: ingest batch %d: %v", name, bi, err)
		}
	}
}

// openOracleEngines opens the baseline — a single store that index.Builder
// wrote batch by batch, the serial reference — and one in-memory engine per
// shard count that ingests the workload identically through the pipeline.
func openOracleEngines(t *testing.T, w oracleWorkload) []oracleEngine {
	t.Helper()
	ref := openMem(t, Config{Policy: "STNM", Workers: 2})
	for bi, batch := range w.batches {
		if bi == 2 {
			if err := ref.RotatePeriod("p2"); err != nil {
				t.Fatal(err)
			}
		}
		builderIngest(t, ref, batch)
	}
	engines := []oracleEngine{{"serial-builder", ref}}
	for _, n := range oracleShardCounts {
		eng, err := Open(Config{Policy: "STNM", Shards: n, Workers: 2})
		if err != nil {
			t.Fatalf("open %d-shard engine: %v", n, err)
		}
		t.Cleanup(func() { eng.Close() })
		name := fmt.Sprintf("%d-shard", n)
		oracleIngest(t, name, eng, w)
		engines = append(engines, oracleEngine{name, eng})
	}
	return engines
}

// jrun renders fn's result (or its error) canonically for byte comparison.
func jrun(t *testing.T, fn func() (any, error)) string {
	t.Helper()
	v, err := fn()
	return jdump(t, v, err)
}

// jdump renders a result (or its error) canonically for byte comparison.
func jdump(t *testing.T, v any, err error) string {
	t.Helper()
	if err != nil {
		return "error: " + err.Error()
	}
	raw, merr := json.Marshal(v)
	if merr != nil {
		t.Fatalf("marshal: %v", merr)
	}
	return string(raw)
}

// assertAgree runs fn against every engine and asserts the rendered results
// are byte-identical to the first (baseline) engine.
func assertAgree(t *testing.T, engines []oracleEngine, label string, fn func(*Engine) (any, error)) {
	t.Helper()
	want := ""
	for i, oe := range engines {
		v, err := fn(oe.eng)
		got := jdump(t, v, err)
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("%s: %s diverges from %s\n %s: %s\n %s: %s",
				label, oe.name, engines[0].name, engines[0].name, want, oe.name, got)
		}
	}
}

// runOracleBattery interrogates every engine with the workload's full query
// matrix — detection (plain, traced, windowed), statistics,
// continuation exploration in every mode — then exercises the mutating prune
// path and re-compares. Engines must already hold the workload. This is THE
// shared differential battery: the shard-count oracle and the netshard
// (remote store) oracle both run it, so a backend implementation is proven
// against the same surface the local engine answers.
func runOracleBattery(t *testing.T, engines []oracleEngine, w oracleWorkload) {
	t.Helper()

	// Index shape: same traces, same partitions, same pair counts.
	assertAgree(t, engines, "numtraces", func(e *Engine) (any, error) {
		n, err := e.NumTraces()
		return n, err
	})
	assertAgree(t, engines, "periods", func(e *Engine) (any, error) {
		return e.Periods()
	})
	assertAgree(t, engines, "partitions", func(e *Engine) (any, error) {
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		return info.Partitions, nil
	})

	for pi, p := range w.patterns {
		p := p
		assertAgree(t, engines, fmt.Sprintf("detect[%d]", pi), func(e *Engine) (any, error) {
			return e.Detect(context.Background(), p, DetectOptions{})
		})
		assertAgree(t, engines, fmt.Sprintf("detectTraces[%d]", pi), func(e *Engine) (any, error) {
			return detectTraces(e, p)
		})
		assertAgree(t, engines, fmt.Sprintf("detectWithin[%d]", pi), func(e *Engine) (any, error) {
			return e.Detect(context.Background(), p, DetectOptions{Within: 40})
		})
		assertAgree(t, engines, fmt.Sprintf("stats[%d]", pi), func(e *Engine) (any, error) {
			return e.Stats(context.Background(), p, StatsOptions{})
		})
		assertAgree(t, engines, fmt.Sprintf("statsAll[%d]", pi), func(e *Engine) (any, error) {
			return e.Stats(context.Background(), p, StatsOptions{AllPairs: true})
		})
	}

	for pi, p := range w.prefixes {
		p := p
		for _, mode := range []ExploreMode{Accurate, Fast, Hybrid} {
			mode := mode
			assertAgree(t, engines, fmt.Sprintf("explore-%s[%d]", mode, pi), func(e *Engine) (any, error) {
				return e.Explore(context.Background(), p, ExploreOptions{Mode: mode, TopK: 3})
			})
		}
		assertAgree(t, engines, fmt.Sprintf("exploreGap[%d]", pi), func(e *Engine) (any, error) {
			return e.Explore(context.Background(), p, ExploreOptions{Mode: Hybrid, TopK: 2, MaxAvgGap: 25})
		})
		assertAgree(t, engines, fmt.Sprintf("exploreInsert[%d]", pi), func(e *Engine) (any, error) {
			return e.Explore(context.Background(), p, ExploreOptions{Mode: Hybrid, Position: at(0), TopK: 2})
		})
	}

	// Mutating paths must stay in lockstep too: prune a known trace
	// everywhere, then re-compare a detection.
	tr := w.batches[0][0].Trace
	for _, oe := range engines {
		if err := oe.eng.PruneTraces([]int64{tr}); err != nil {
			t.Fatalf("%s: prune: %v", oe.name, err)
		}
	}
	assertAgree(t, engines, "numtraces-after-prune", func(e *Engine) (any, error) {
		n, err := e.NumTraces()
		return n, err
	})
	assertAgree(t, engines, "detect-after-prune", func(e *Engine) (any, error) {
		return e.Detect(context.Background(), w.patterns[0], DetectOptions{})
	})
	assertAgree(t, engines, "stats-after-prune", func(e *Engine) (any, error) {
		return e.Stats(context.Background(), w.patterns[0], StatsOptions{})
	})
}

func TestShardCountInvariance(t *testing.T) {
	for _, seed := range []int64{7, 101, 4242} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			w := oracleLog(seed)
			engines := openOracleEngines(t, w)
			runOracleBattery(t, engines, w)
		})
	}
}

// TestShardedDurableReopen round-trips a sharded engine through disk: the
// shard directories reopen to the same answers, at the count the store pins
// when the Config leaves it zero, and an explicit mismatched count is
// rejected instead of silently re-routing keys.
func TestShardedDurableReopen(t *testing.T) {
	dir := t.TempDir()
	w := oracleLog(99)
	eng, err := Open(Config{Policy: "STNM", Shards: 4, Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range w.batches {
		if _, err := eng.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	want := jrun(t, func() (any, error) { return eng.Detect(context.Background(), w.patterns[0], DetectOptions{}) })
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Wrong shard count: refused.
	if _, err := Open(Config{Policy: "STNM", Shards: 2, ShardDir: dir, Dir: dir}); err == nil {
		t.Fatal("reopen with 2 shards over a 4-shard store succeeded")
	}
	// Explicit single-store open of a sharded directory: refused by the
	// layout guard.
	if _, err := Open(Config{Policy: "STNM", Shards: 1, Dir: dir}); err == nil {
		t.Fatal("single-store reopen of a sharded directory succeeded")
	}

	for _, shards := range []int{4, 0} {
		reopened, err := Open(Config{Policy: "STNM", Shards: shards, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if info, err := reopened.Info(); err != nil || info.Shards != 4 {
			t.Fatalf("reopened with Shards %d: info %+v, %v (want 4 shards)", shards, info, err)
		}
		if got := jrun(t, func() (any, error) { return reopened.Detect(context.Background(), w.patterns[0], DetectOptions{}) }); got != want {
			t.Fatalf("reopened with Shards %d: sharded engine diverges:\nbefore: %s\nafter:  %s", shards, want, got)
		}
		reopened.Close()
	}
}

// TestShardedStreamMatchesBatch: the streaming pipeline over a sharded
// backend (per-shard group commits) produces the same index as serial batch
// ingestion into a 1-shard engine.
func TestShardedStreamMatchesBatch(t *testing.T) {
	w := oracleLog(17)

	serial := builderEngine(t, Config{Policy: "STNM", Workers: 2}, w.batches...)

	sharded, err := Open(Config{Policy: "STNM", Shards: 4, Workers: 2, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	app, err := sharded.OpenStream(StreamOptions{Block: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range w.batches {
		if err := app.Append(b); err != nil {
			t.Fatal(err)
		}
		if err := app.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}

	for pi, p := range w.patterns {
		want := jrun(t, func() (any, error) { return serial.Detect(context.Background(), p, DetectOptions{}) })
		got := jrun(t, func() (any, error) { return sharded.Detect(context.Background(), p, DetectOptions{}) })
		if got != want {
			t.Errorf("pattern %d: streamed 4-shard engine diverges from serial 1-shard\nwant %s\ngot  %s", pi, want, got)
		}
	}
	stats := jrun(t, func() (any, error) { return serial.Stats(context.Background(), w.patterns[0], StatsOptions{}) })
	if got := jrun(t, func() (any, error) { return sharded.Stats(context.Background(), w.patterns[0], StatsOptions{}) }); got != stats {
		t.Errorf("stats diverge:\nwant %s\ngot  %s", stats, got)
	}
}
