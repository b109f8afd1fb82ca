package query

import (
	"context"

	"math/rand"
	"testing"

	"seqlog/internal/index"
	"seqlog/internal/kvstore"
	"seqlog/internal/model"
	"seqlog/internal/pairs"
	"seqlog/internal/storage"
)

// benchProcessor indexes a reproducible random log (uniform walk over the
// alphabet, so every activity has alphabet-many successors) and returns a
// processor over it. Deliberately uses only the seed-era API so the same
// file benchmarks the before and after of the hot-path overhaul.
func benchProcessor(b *testing.B, traces, events, alphabet int) *Processor {
	b.Helper()
	tb := storage.NewTables(kvstore.NewMemStore())
	bld, err := index.NewBuilder(tb, index.Options{Policy: model.STNM, Method: pairs.Indexing, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := bld.Update(benchEvents(traces, events, alphabet)); err != nil {
		b.Fatal(err)
	}
	return NewProcessor(tb)
}

// benchEvents is the reproducible random log of benchProcessor.
func benchEvents(traces, events, alphabet int) []model.Event {
	rng := rand.New(rand.NewSource(42))
	var batch []model.Event
	for t := 1; t <= traces; t++ {
		for i := 0; i < events; i++ {
			batch = append(batch, model.Event{
				Trace:    model.TraceID(t),
				Activity: model.ActivityID(rng.Intn(alphabet)),
				TS:       model.Timestamp(i + 1),
			})
		}
	}
	return batch
}

// BenchmarkDetectJoin measures repeated detection of the same pattern — the
// interactive workload of §5: the index is warm, only the query path moves.
func BenchmarkDetectJoin(b *testing.B) {
	for _, tc := range []struct {
		name    string
		pattern model.Pattern
	}{
		{"len2", model.Pattern{0, 1}},
		{"len3", model.Pattern{0, 1, 2}},
		{"len4", model.Pattern{0, 1, 2, 3}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			q := benchProcessor(b, 200, 100, 16)
			if _, err := q.Detect(context.Background(), tc.pattern); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.Detect(context.Background(), tc.pattern); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDetectJoinSegments measures detection where the join reads
// block runs: the log of BenchmarkExploreAccurateSegments frozen into a
// segment, read through a 256 KiB cache that holds a small share of the
// decoded entries and through the default cache that holds them all. It
// reports the decoded rows each detection reads (rows/op).
func BenchmarkDetectJoinSegments(b *testing.B) {
	tb, err := storage.OpenTables(kvstore.NewMemStore(), storage.Options{SegmentDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	bld, err := index.NewBuilder(tb, index.Options{Policy: model.STNM, Method: pairs.Indexing, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := bld.Update(benchEvents(1000, 100, 16)); err != nil {
		b.Fatal(err)
	}
	if err := tb.FreezePostings(); err != nil {
		b.Fatal(err)
	}
	q := NewProcessor(tb)
	p := model.Pattern{0, 1, 2, 3}
	for _, tc := range []struct {
		name  string
		cache int64
	}{
		{"cache256k", 256 << 10},
		{"cachedefault", storage.DefaultCacheBytes},
	} {
		b.Run(tc.name, func(b *testing.B) {
			tb.SetCacheBudget(tc.cache)
			if ms, err := q.Detect(context.Background(), p); err != nil || len(ms) == 0 {
				b.Fatalf("want matches, got %d (%v)", len(ms), err)
			}
			rows := tb.ReadRows()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.Detect(context.Background(), p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tb.ReadRows()-rows)/float64(b.N), "rows/op")
		})
	}
}

// BenchmarkExploreAccurate measures Algorithm 3 with 16 candidate
// continuations of a two-event pattern over in-memory rows.
func BenchmarkExploreAccurate(b *testing.B) {
	q := benchProcessor(b, 200, 100, 16)
	p := model.Pattern{0, 1}
	props, err := q.ExploreAccurate(context.Background(), p, ExploreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if len(props) < 8 {
		b.Fatalf("want >= 8 candidates, got %d", len(props))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.ExploreAccurate(context.Background(), p, ExploreOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreAccurateSegments measures Algorithm 3 where its cost
// lives on a cold store: a length-3 pattern (a 2-pair prefix shared by 16
// candidates) over postings frozen into a segment, read through a 256 KiB
// cache that holds a small share of the ~100k decoded entries, serially.
func BenchmarkExploreAccurateSegments(b *testing.B) {
	tb, err := storage.OpenTables(kvstore.NewMemStore(), storage.Options{SegmentDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	bld, err := index.NewBuilder(tb, index.Options{Policy: model.STNM, Method: pairs.Indexing, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := bld.Update(benchEvents(1000, 100, 16)); err != nil {
		b.Fatal(err)
	}
	if err := tb.FreezePostings(); err != nil {
		b.Fatal(err)
	}
	tb.SetCacheBudget(256 << 10)
	q := NewProcessor(tb)
	q.SetWorkers(1)
	p := model.Pattern{0, 1, 2}
	if props, err := q.ExploreAccurate(context.Background(), p, ExploreOptions{}); err != nil || len(props) < 8 {
		b.Fatalf("want >= 8 candidates, got %v (%v)", props, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.ExploreAccurate(context.Background(), p, ExploreOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreHybrid measures Algorithm 5 with the top 8 of 16
// candidates re-checked accurately.
func BenchmarkExploreHybrid(b *testing.B) {
	q := benchProcessor(b, 200, 100, 16)
	p := model.Pattern{0, 1}
	if _, err := q.ExploreHybrid(context.Background(), p, ExploreOptions{TopK: 8}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.ExploreHybrid(context.Background(), p, ExploreOptions{TopK: 8}); err != nil {
			b.Fatal(err)
		}
	}
}
