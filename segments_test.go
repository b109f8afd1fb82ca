package seqlog

import (
	"context"

	"fmt"
	"testing"
)

// The differential oracle for the segment tier: an engine whose postings live
// in block-compressed immutable segments must be OBSERVABLY IDENTICAL to the
// plain row-backed engine over the same log — same matches, same statistics,
// same rankings, byte for byte — for every query family, across freezes,
// compaction, reopen and sharding. The segment variants freeze mid-ingest, so
// every query runs against a genuine mix of segment runs and kvstore tails.

// openSegmentOracleEngines ingests the workload identically into each engine
// variant. Freeze points are interleaved with ingestion so segment + memtable
// reads, segment-merge freezes and post-freeze period rotation all happen.
func openSegmentOracleEngines(t *testing.T, w oracleWorkload) map[string]*Engine {
	t.Helper()
	dirs := map[string]string{}
	open := func(name string, cfg Config) *Engine {
		t.Helper()
		eng, err := Open(cfg)
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		t.Cleanup(func() { eng.Close() })
		return eng
	}
	// In-memory stores never freeze: "mem" and the sharded "rows" are the
	// row-backed tier the durable, freezing variants must match.
	engines := map[string]*Engine{
		"mem":     open("mem", Config{Policy: "STNM", Workers: 2}),
		"rows":    open("rows", Config{Policy: "STNM", Workers: 2, Shards: 3}),
		"segs":    nil,
		"shard":   nil,
		"compact": nil,
	}
	dirs["segs"] = t.TempDir()
	engines["segs"] = open("segs", Config{Policy: "STNM", Workers: 2, Dir: dirs["segs"]})
	engines["shard"] = open("shard", Config{Policy: "STNM", Workers: 2, Shards: 4, Dir: t.TempDir()})
	engines["compact"] = open("compact", Config{Policy: "STNM", Workers: 2, Dir: t.TempDir()})

	for bi, batch := range w.batches {
		for name, eng := range engines {
			if bi == 2 {
				if err := eng.RotatePeriod("p2"); err != nil {
					t.Fatalf("%s: rotate: %v", name, err)
				}
			}
			if _, err := eng.Ingest(batch); err != nil {
				t.Fatalf("%s: ingest batch %d: %v", name, bi, err)
			}
		}
		// Freeze the segment variants after the first and third batches: the
		// second freeze exercises the old-segment merge path, and later
		// batches leave unfrozen kvstore tails to read alongside segments.
		if bi == 0 || bi == 2 {
			for _, name := range []string{"segs", "shard"} {
				if err := engines[name].Freeze(); err != nil {
					t.Fatalf("%s: freeze after batch %d: %v", name, bi, err)
				}
			}
			// Compact freezes first, then rewrites the snapshot — the full
			// lifecycle in one call.
			if err := engines["compact"].Compact(); err != nil {
				t.Fatalf("compact: compact after batch %d: %v", bi, err)
			}
		}
	}

	// Reopen the frozen single-store engine: segment reference, tombstones
	// and tails must all reload to the same answers.
	if err := engines["segs"].Close(); err != nil {
		t.Fatalf("close segs: %v", err)
	}
	engines["segs"] = open("segs-reopen", Config{Workers: 2, Dir: dirs["segs"]})
	return engines
}

// assertSegAgree runs fn against every engine and asserts the rendered
// results are byte-identical to the in-memory row-backed baseline.
func assertSegAgree(t *testing.T, engines map[string]*Engine, label string, fn func(*Engine) (any, error)) {
	t.Helper()
	want := jrun(t, func() (any, error) { return fn(engines["mem"]) })
	for _, name := range []string{"rows", "segs", "shard", "compact"} {
		got := jrun(t, func() (any, error) { return fn(engines[name]) })
		if got != want {
			t.Errorf("%s: %s diverges from mem\n mem: %s\n %s: %s", label, name, want, name, got)
		}
	}
}

func TestSegmentEngineInvariance(t *testing.T) {
	for _, seed := range []int64{13, 907} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			w := oracleLog(seed)
			engines := openSegmentOracleEngines(t, w)

			// The segment engines must actually be running on segments,
			// otherwise this oracle proves nothing.
			for _, name := range []string{"segs", "shard", "compact"} {
				if st := engines[name].SegmentStats(); st.Segments == 0 || st.Entries == 0 {
					t.Fatalf("%s: no live segment after freezes: %+v", name, st)
				}
			}

			assertSegAgree(t, engines, "numtraces", func(e *Engine) (any, error) {
				n, err := e.NumTraces()
				return n, err
			})
			assertSegAgree(t, engines, "periods", func(e *Engine) (any, error) {
				return e.Periods()
			})
			assertSegAgree(t, engines, "partitions", func(e *Engine) (any, error) {
				info, err := e.Info()
				if err != nil {
					return nil, err
				}
				return info.Partitions, nil
			})

			for pi, p := range w.patterns {
				p := p
				assertSegAgree(t, engines, fmt.Sprintf("detect[%d]", pi), func(e *Engine) (any, error) {
					return e.Detect(context.Background(), p, DetectOptions{})
				})
				assertSegAgree(t, engines, fmt.Sprintf("detectTraces[%d]", pi), func(e *Engine) (any, error) {
					return detectTraces(e, p)
				})
				assertSegAgree(t, engines, fmt.Sprintf("detectScan[%d]", pi), func(e *Engine) (any, error) {
					return e.Detect(context.Background(), p, DetectOptions{Scan: true})
				})
				for _, within := range []int64{15, 40, 1 << 40} {
					within := within
					assertSegAgree(t, engines, fmt.Sprintf("detectWithin[%d,%d]", pi, within), func(e *Engine) (any, error) {
						return e.Detect(context.Background(), p, DetectOptions{Within: within})
					})
				}
				assertSegAgree(t, engines, fmt.Sprintf("stats[%d]", pi), func(e *Engine) (any, error) {
					return e.Stats(context.Background(), p, StatsOptions{})
				})
				assertSegAgree(t, engines, fmt.Sprintf("statsAll[%d]", pi), func(e *Engine) (any, error) {
					return e.Stats(context.Background(), p, StatsOptions{AllPairs: true})
				})
			}
			for pi, p := range w.prefixes {
				p := p
				for _, mode := range []ExploreMode{Accurate, Fast, Hybrid} {
					mode := mode
					assertSegAgree(t, engines, fmt.Sprintf("explore-%s[%d]", mode, pi), func(e *Engine) (any, error) {
						return e.Explore(context.Background(), p, ExploreOptions{Mode: mode, TopK: 3})
					})
				}
			}

			// DropPeriod after a freeze tombstones segment data; every
			// variant must converge on the same post-drop answers.
			for name, eng := range engines {
				if err := eng.DropPeriod("p2"); err != nil {
					t.Fatalf("%s: drop period: %v", name, err)
				}
			}
			assertSegAgree(t, engines, "periods-after-drop", func(e *Engine) (any, error) {
				return e.Periods()
			})
			for pi, p := range w.patterns[:4] {
				p := p
				assertSegAgree(t, engines, fmt.Sprintf("detect-after-drop[%d]", pi), func(e *Engine) (any, error) {
					return e.Detect(context.Background(), p, DetectOptions{})
				})
			}
			// And a freeze after the drop must compact the tombstone without
			// changing any answer.
			for _, name := range []string{"segs", "shard", "compact"} {
				if err := engines[name].Freeze(); err != nil {
					t.Fatalf("%s: post-drop freeze: %v", name, err)
				}
			}
			for pi, p := range w.patterns[:4] {
				p := p
				assertSegAgree(t, engines, fmt.Sprintf("detect-after-drop-freeze[%d]", pi), func(e *Engine) (any, error) {
					return e.Detect(context.Background(), p, DetectOptions{})
				})
			}
		})
	}
}

// TestSegmentMigration: a directory that never froze — the layout an older
// build left without its segment option — opens as it is, answers the same
// before and after, and holds a segment after its first automatic
// compaction, because every durable store freezes before it compacts.
func TestSegmentMigration(t *testing.T) {
	dir := t.TempDir()
	w := oracleLog(31)
	ref := openMem(t, Config{Workers: 2})
	oracleIngest(t, "mem", ref, w)
	eng, err := Open(Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	oracleIngest(t, "rows", eng, w)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng, err = Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if st := eng.SegmentStats(); st.Segments != 0 {
		t.Fatalf("a store that never compacted holds a segment: %+v", st)
	}
	engines := []oracleEngine{{"mem", ref}, {"rows", eng}}
	agree := func(stage string) {
		t.Helper()
		for pi, p := range w.patterns {
			assertAgree(t, engines, fmt.Sprintf("%s detect[%d]", stage, pi), func(e *Engine) (any, error) {
				return e.Detect(context.Background(), p, DetectOptions{})
			})
			assertAgree(t, engines, fmt.Sprintf("%s within[%d]", stage, pi), func(e *Engine) (any, error) {
				return e.Detect(context.Background(), p, DetectOptions{Within: 40})
			})
			assertAgree(t, engines, fmt.Sprintf("%s stats[%d]", stage, pi), func(e *Engine) (any, error) {
				return e.Stats(context.Background(), p, StatsOptions{AllPairs: true})
			})
		}
		for pi, p := range w.prefixes {
			assertAgree(t, engines, fmt.Sprintf("%s explore[%d]", stage, pi), func(e *Engine) (any, error) {
				return e.Explore(context.Background(), p, ExploreOptions{Mode: Accurate})
			})
		}
	}
	agree("rows")

	// Force the automatic compaction: the next durability point finds the
	// WAL past its threshold.
	eng.disks[0].CompactAt = 1
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := eng.SegmentStats(); st.Segments != 1 || st.Freezes != 1 || st.Entries == 0 {
		t.Fatalf("automatic compaction did not freeze: %+v", st)
	}
	agree("segment")
}

// TestSegmentsConfigIgnored: Config.Segments is an accepted, ignored name.
// An in-memory engine opens with it set and holds no segment; a durable one
// without it freezes on Compact.
func TestSegmentsConfigIgnored(t *testing.T) {
	mem := openMem(t, Config{Segments: true})
	if err := mem.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := mem.SegmentStats(); st.Segments != 0 {
		t.Fatalf("in-memory engine froze: %+v", st)
	}
	eng, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Ingest(shopEvents()); err != nil {
		t.Fatal(err)
	}
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := eng.SegmentStats(); st.Segments != 1 {
		t.Fatalf("durable engine did not freeze on Compact: %+v", st)
	}
}
