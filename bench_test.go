// Benchmarks mirroring the paper's evaluation, one benchmark family per
// table/figure. `go test -bench=. -benchmem` runs them on reduced dataset
// sizes; cmd/seqbench regenerates the full tables/figures with the same
// code paths and configurable scale.
package seqlog

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"seqlog/internal/index"
	"seqlog/internal/kvstore"
	"seqlog/internal/loggen"
	"seqlog/internal/model"
	"seqlog/internal/pairs"
	"seqlog/internal/query"
	"seqlog/internal/sase"
	"seqlog/internal/storage"
	"seqlog/internal/subtree"
	"seqlog/internal/textsearch"
)

// benchScale keeps `go test -bench=.` runnable on small machines; the
// seqbench binary exposes the full-scale runs.
const benchScale = 0.02

func benchLog(b *testing.B, name string) *model.Log {
	b.Helper()
	spec, err := loggen.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	return spec.Generate(benchScale)
}

func buildSTNM(b *testing.B, log *model.Log, m pairs.Method) *storage.Tables {
	b.Helper()
	tb := storage.NewTables(kvstore.NewMemStore())
	bld, err := index.NewBuilder(tb, index.Options{Policy: model.STNM, Method: m})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := bld.Update(log.Events()); err != nil {
		b.Fatal(err)
	}
	return tb
}

func buildSC(b *testing.B, log *model.Log) *storage.Tables {
	b.Helper()
	tb := storage.NewTables(kvstore.NewMemStore())
	bld, err := index.NewBuilder(tb, index.Options{Policy: model.SC})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := bld.Update(log.Events()); err != nil {
		b.Fatal(err)
	}
	return tb
}

func benchPatterns(log *model.Log, length int, seed int64) []model.Pattern {
	var out []model.Pattern
	for _, tr := range log.Traces {
		if tr.Len() < length {
			continue
		}
		p := make(model.Pattern, length)
		for i := 0; i < length; i++ {
			p[i] = tr.Events[i].Activity
		}
		out = append(out, p)
		if len(out) == 20 {
			break
		}
	}
	_ = seed
	return out
}

// BenchmarkTable5 measures one STNM index build per extraction flavor.
func BenchmarkTable5(b *testing.B) {
	log := benchLog(b, "bpi_2017")
	for _, m := range []pairs.Method{pairs.Indexing, pairs.Parsing, pairs.State} {
		b.Run(m.String(), func(b *testing.B) {
			evs := log.Events()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tb := storage.NewTables(kvstore.NewMemStore())
				bld, _ := index.NewBuilder(tb, index.Options{Policy: model.STNM, Method: m})
				if _, err := bld.Update(evs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure3 sweeps the flavors over one random-log point per axis.
func BenchmarkFigure3(b *testing.B) {
	cfgs := map[string]loggen.RandomLogConfig{
		"events":     {Traces: 50, MaxEvents: 400, Activities: 50, Seed: 1, FixedLength: true},
		"traces":     {Traces: 400, MaxEvents: 50, Activities: 50, Seed: 2, FixedLength: true},
		"activities": {Traces: 100, MaxEvents: 100, Activities: 400, Seed: 3, FixedLength: true},
	}
	for axis, cfg := range cfgs {
		log := loggen.RandomLog(cfg)
		evs := log.Events()
		for _, m := range []pairs.Method{pairs.Indexing, pairs.Parsing, pairs.State} {
			b.Run(axis+"/"+m.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tb := storage.NewTables(kvstore.NewMemStore())
					bld, _ := index.NewBuilder(tb, index.Options{Policy: model.STNM, Method: m})
					if _, err := bld.Update(evs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable6 measures preprocessing per system.
func BenchmarkTable6(b *testing.B) {
	log := benchLog(b, "max_1000")
	evs := log.Events()
	b.Run("SuffixArray19", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			subtree.BuildLogIndex(log)
		}
	})
	b.Run("StrictIndex", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tb := storage.NewTables(kvstore.NewMemStore())
			bld, _ := index.NewBuilder(tb, index.Options{Policy: model.SC})
			if _, err := bld.Update(evs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("STNMIndex", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tb := storage.NewTables(kvstore.NewMemStore())
			bld, _ := index.NewBuilder(tb, index.Options{Policy: model.STNM, Method: pairs.Indexing})
			if _, err := bld.Update(evs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Elasticsearch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix := textsearch.NewIndex(textsearch.Options{})
			if err := ix.IndexLog(log); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable7 measures SC detection: suffix-array baseline vs pair join.
func BenchmarkTable7(b *testing.B) {
	log := benchLog(b, "max_1000")
	baseline := subtree.BuildLogIndex(log)
	q := query.NewProcessor(buildSC(b, log))
	for _, plen := range []int{2, 10} {
		ps := benchPatterns(log, plen, 7)
		if len(ps) == 0 {
			continue
		}
		b.Run(fmt.Sprintf("SuffixArray19/len%d", plen), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.Detect(ps[i%len(ps)])
			}
		})
		b.Run(fmt.Sprintf("OurMethod/len%d", plen), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := q.Detect(context.Background(), ps[i%len(ps)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure4 measures pair-join detection vs pattern length.
func BenchmarkFigure4(b *testing.B) {
	log := benchLog(b, "max_10000")
	q := query.NewProcessor(buildSC(b, log))
	for _, plen := range []int{2, 4, 6, 8, 10} {
		ps := benchPatterns(log, plen, 11)
		if len(ps) == 0 {
			continue
		}
		b.Run(fmt.Sprintf("len%d", plen), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := q.Detect(context.Background(), ps[i%len(ps)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable8 measures STNM detection across the three systems.
func BenchmarkTable8(b *testing.B) {
	log := benchLog(b, "bpi_2017")
	es := textsearch.NewIndex(textsearch.Options{})
	if err := es.IndexLog(log); err != nil {
		b.Fatal(err)
	}
	engine := sase.NewEngine(log)
	q := query.NewProcessor(buildSTNM(b, log, pairs.Indexing))
	for _, plen := range []int{2, 5, 10} {
		ps := benchPatterns(log, plen, 13)
		if len(ps) == 0 {
			continue
		}
		b.Run(fmt.Sprintf("Elasticsearch/len%d", plen), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				es.SpanNear(ps[i%len(ps)])
			}
		})
		b.Run(fmt.Sprintf("SASE/len%d", plen), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Evaluate(sase.Query{Pattern: ps[i%len(ps)], Strategy: model.STNM}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("OurMethod/len%d", plen), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := q.Detect(context.Background(), ps[i%len(ps)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure5 measures Accurate vs Fast continuation per pattern length.
func BenchmarkFigure5(b *testing.B) {
	log := benchLog(b, "max_10000")
	q := query.NewProcessor(buildSTNM(b, log, pairs.Indexing))
	for _, plen := range []int{2, 4} {
		ps := benchPatterns(log, plen, 17)
		if len(ps) == 0 {
			continue
		}
		b.Run(fmt.Sprintf("Accurate/len%d", plen), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := q.ExploreAccurate(context.Background(), ps[i%len(ps)], query.ExploreOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Fast/len%d", plen), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := q.ExploreFast(context.Background(), ps[i%len(ps)], query.ExploreOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure6 measures Hybrid continuation across topK values.
func BenchmarkFigure6(b *testing.B) {
	log := benchLog(b, "max_10000")
	q := query.NewProcessor(buildSTNM(b, log, pairs.Indexing))
	ps := benchPatterns(log, 4, 19)
	if len(ps) == 0 {
		b.Skip("no length-4 patterns at this scale")
	}
	for _, k := range []int{0, 2, 8} {
		b.Run(fmt.Sprintf("topK%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := q.ExploreHybrid(context.Background(), ps[i%len(ps)], query.ExploreOptions{TopK: k}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure7 exercises the accuracy computation path (hybrid vs
// accurate ground truth); the accuracy numbers themselves come from
// seqbench -exp figure7.
func BenchmarkFigure7(b *testing.B) {
	log := benchLog(b, "max_10000")
	q := query.NewProcessor(buildSTNM(b, log, pairs.Indexing))
	ps := benchPatterns(log, 4, 23)
	if len(ps) == 0 {
		b.Skip("no length-4 patterns at this scale")
	}
	b.Run("groundTruthPlusHybrid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := ps[i%len(ps)]
			if _, err := q.ExploreAccurate(context.Background(), p, query.ExploreOptions{}); err != nil {
				b.Fatal(err)
			}
			if _, err := q.ExploreHybrid(context.Background(), p, query.ExploreOptions{TopK: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStores is the storage-engine ablation: identical ingestion into
// the in-memory and the durable engine.
func BenchmarkStores(b *testing.B) {
	log := benchLog(b, "bpi_2013")
	evs := log.Events()
	b.Run("MemStore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tb := storage.NewTables(kvstore.NewMemStore())
			bld, _ := index.NewBuilder(tb, index.Options{Policy: model.STNM, Method: pairs.Indexing})
			if _, err := bld.Update(evs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DiskStore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := b.TempDir()
			b.StartTimer()
			st, err := kvstore.OpenDisk(dir)
			if err != nil {
				b.Fatal(err)
			}
			tb := storage.NewTables(st)
			bld, _ := index.NewBuilder(tb, index.Options{Policy: model.STNM, Method: pairs.Indexing})
			if _, err := bld.Update(evs); err != nil {
				b.Fatal(err)
			}
			if err := st.Sync(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			st.Close()
			b.StartTimer()
		}
	})
}

// BenchmarkEngineIngest drives Engine.Ingest the way a durable server's
// /ingest handler does: max_5000 × 0.15 (about 30k events over 750 traces),
// each trace shifted by a random start offset and the whole log replayed in
// time order, one Ingest call per 250-event batch, into a fresh durable
// engine per iteration. Besides the time per log it reports, per ingested
// event, the stored events loaded back into resident sessions, the events
// handed to pair extraction and the allocations.
func BenchmarkEngineIngest(b *testing.B) {
	spec, err := loggen.Lookup("max_5000")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var events []Event
	for _, tr := range spec.Generate(0.15).Traces {
		off := rng.Int63n(20000)
		for _, ev := range tr.Events {
			events = append(events, Event{Trace: int64(tr.ID), Activity: fmt.Sprintf("a%d", ev.Activity), Time: int64(ev.TS) + off})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Time < events[j].Time })

	var loaded, reextracted, allocs uint64
	var ms runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := Open(Config{Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		b.StartTimer()
		for lo := 0; lo < len(events); lo += 250 {
			if _, err := e.Ingest(events[lo:min(lo+250, len(events))]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		allocs += ms.Mallocs - before
		st := e.IngestInfo()
		loaded += uint64(st.Loaded)
		reextracted += uint64(st.Reextracted)
		if err := e.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	n := float64(b.N) * float64(len(events))
	b.ReportMetric(float64(loaded)/n, "loaded/event")
	b.ReportMetric(float64(reextracted)/n, "reextracted/event")
	b.ReportMetric(float64(allocs)/n, "allocs/event")
}
