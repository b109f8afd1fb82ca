package storage

import (
	"context"
	"testing"

	"seqlog/internal/kvstore"
	"seqlog/internal/model"
)

// BenchmarkStatsLastCompletion times one GetLastCompletion of a pair holding
// 100k entries, appended 250 at a time as flushes append them:
//   - tail: an in-memory store, where the memtable row is all there is; the
//     first read decodes and sorts it into the postings cache, later reads
//     scan the cached entries;
//   - tail-uncached: the same with the cache disabled, so every read decodes
//     the row;
//   - frozen: the pair frozen into a segment, read from its skip headers
//     without decoding a block.
func BenchmarkStatsLastCompletion(b *testing.B) {
	const entries, chunk = 100_000, 250
	pair := model.NewPairKey(1, 2)
	fill := func(b *testing.B, tb *Tables) {
		buf := make([]IndexEntry, chunk)
		for lo := 0; lo < entries; lo += chunk {
			for i := range buf {
				n := lo + i
				buf[i] = IndexEntry{Trace: model.TraceID(n / 8), TsA: model.Timestamp(10 * n), TsB: model.Timestamp(10*n + 7)}
			}
			if err := tb.AppendIndex("", pair, buf); err != nil {
				b.Fatal(err)
			}
		}
	}
	run := func(b *testing.B, tb *Tables) {
		want := model.Timestamp(10*(entries-1) + 7)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got, err := tb.GetLastCompletion(context.Background(), pair); got != want || err != nil {
				b.Fatalf("LastCompletion = %d, %v; want %d", got, err, want)
			}
		}
	}
	b.Run("tail", func(b *testing.B) {
		tb := NewTables(kvstore.NewMemStore())
		fill(b, tb)
		run(b, tb)
	})
	b.Run("tail-uncached", func(b *testing.B) {
		tb := NewTables(kvstore.NewMemStore())
		tb.SetCacheBudget(-1)
		fill(b, tb)
		run(b, tb)
	})
	b.Run("frozen", func(b *testing.B) {
		tb, err := OpenTables(kvstore.NewMemStore(), Options{SegmentDir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		defer tb.Close()
		fill(b, tb)
		if err := tb.FreezePostings(); err != nil {
			b.Fatal(err)
		}
		run(b, tb)
	})
}
