package storage

import (
	"context"

	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"seqlog/internal/kvstore"
	"seqlog/internal/model"
)

// countingStore wraps a kvstore and counts Scans and Puts, so the tests can
// prove the periods table is read once and idempotent re-registrations are
// skipped.
type countingStore struct {
	kvstore.Store
	scans atomic.Int64
	puts  atomic.Int64
}

func (c *countingStore) Scan(table string, fn func(string, []byte) error) error {
	c.scans.Add(1)
	return c.Store.Scan(table, fn)
}

func (c *countingStore) Put(table, key string, value []byte) error {
	c.puts.Add(1)
	return c.Store.Put(table, key, value)
}

func TestPostingsCacheFillsAndInvalidates(t *testing.T) {
	tb := NewTables(kvstore.NewMemStore())
	pair := model.NewPairKey(1, 2)
	in := []IndexEntry{
		{Trace: 9, TsA: 5, TsB: 6},
		{Trace: 1, TsA: 3, TsB: 4},
		{Trace: 1, TsA: 1, TsB: 2},
	}
	if err := tb.AppendIndex("", pair, in); err != nil {
		t.Fatal(err)
	}
	po, err := tb.GetPostings(context.Background(), pair)
	if err != nil {
		t.Fatal(err)
	}
	want := []IndexEntry{
		{Trace: 1, TsA: 1, TsB: 2},
		{Trace: 1, TsA: 3, TsB: 4},
		{Trace: 9, TsA: 5, TsB: 6},
	}
	// One partition, no segment: the single run is the sorted row itself.
	if len(po.Runs) != 1 || !reflect.DeepEqual(po.Runs[0].Entries, want) {
		t.Fatalf("sorted run = %+v", po.Runs)
	}
	if st := tb.CacheStats(); st.Misses != 1 || st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("after first read: %+v", st)
	}
	if _, err := tb.GetPostings(context.Background(), pair); err != nil {
		t.Fatal(err)
	}
	if st := tb.CacheStats(); st.Hits != 1 {
		t.Fatalf("after second read: %+v", st)
	}

	// Appending to the row must invalidate the cached decode.
	if err := tb.AppendIndex("", pair, []IndexEntry{{Trace: 2, TsA: 2, TsB: 3}}); err != nil {
		t.Fatal(err)
	}
	got, err := postingsMerged(tb, pair)
	if err != nil {
		t.Fatal(err)
	}
	want = []IndexEntry{
		{Trace: 1, TsA: 1, TsB: 2},
		{Trace: 1, TsA: 3, TsB: 4},
		{Trace: 2, TsA: 2, TsB: 3},
		{Trace: 9, TsA: 5, TsB: 6},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after append: %v", got)
	}
}

func TestPostingsCoverEveryPeriod(t *testing.T) {
	tb := NewTables(kvstore.NewMemStore())
	pair := model.NewPairKey(1, 2)
	tb.AppendIndex("", pair, []IndexEntry{{Trace: 5, TsA: 1, TsB: 2}, {Trace: 1, TsA: 9, TsB: 10}})
	tb.AppendIndex("2026-01", pair, []IndexEntry{{Trace: 1, TsA: 1, TsB: 3}, {Trace: 7, TsA: 2, TsB: 4}})
	tb.AppendIndex("2026-02", pair, []IndexEntry{{Trace: 3, TsA: 4, TsB: 5}})

	got, err := postingsMerged(tb, pair)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scanIndexRowAllSorted(tb, pair)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 5 || !reflect.DeepEqual(got, want) {
		t.Fatalf("merged = %v, want %v", got, want)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return lessIndexEntry(got[i], got[j]) }) {
		t.Fatalf("merged row not sorted: %v", got)
	}

	// Dropping a period removes its entries from subsequent merges.
	if err := tb.DropPeriod("2026-01"); err != nil {
		t.Fatal(err)
	}
	got, err = postingsMerged(tb, pair)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("after drop: %v", got)
	}
	for _, e := range got {
		if e.Trace == 7 {
			t.Fatalf("dropped-period entry survived: %v", got)
		}
	}
}

func TestCacheEvictionUnderBudget(t *testing.T) {
	tb := NewTables(kvstore.NewMemStore())
	tb.SetCacheBudget(4096) // 256 bytes per shard: a handful of rows
	for i := 0; i < 200; i++ {
		pair := model.NewPairKey(model.ActivityID(i), model.ActivityID(i+1))
		if err := tb.AppendIndex("", pair, []IndexEntry{{Trace: 1, TsA: 1, TsB: 2}}); err != nil {
			t.Fatal(err)
		}
		if _, err := tb.GetPostings(context.Background(), pair); err != nil {
			t.Fatal(err)
		}
	}
	st := tb.CacheStats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a 4 KiB budget: %+v", st)
	}
	if st.Entries >= 200 {
		t.Fatalf("budget not enforced: %+v", st)
	}
	if st.Bytes > 4096 {
		t.Fatalf("resident bytes above budget: %+v", st)
	}
}

func TestCacheDisabled(t *testing.T) {
	tb := NewTables(kvstore.NewMemStore())
	tb.SetCacheBudget(-1)
	pair := model.NewPairKey(1, 2)
	tb.AppendIndex("", pair, []IndexEntry{{Trace: 2, TsA: 1, TsB: 2}, {Trace: 1, TsA: 1, TsB: 2}})
	got, err := postingsMerged(tb, pair)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []IndexEntry{{Trace: 1, TsA: 1, TsB: 2}, {Trace: 2, TsA: 1, TsB: 2}}) {
		t.Fatalf("row = %v", got)
	}
	if st := tb.CacheStats(); st != (CacheStats{}) {
		t.Fatalf("disabled cache reported %+v", st)
	}
}

func TestPeriodsCachedAndMaintained(t *testing.T) {
	cs := &countingStore{Store: kvstore.NewMemStore()}
	tb := NewTables(cs)
	pair := model.NewPairKey(1, 2)
	entry := []IndexEntry{{Trace: 1, TsA: 1, TsB: 2}}
	tb.AppendIndex("2026-02", pair, entry)
	tb.AppendIndex("2026-01", pair, entry)

	ps, err := tb.Periods(context.Background())
	if err != nil || !reflect.DeepEqual(ps, []string{"2026-01", "2026-02"}) {
		t.Fatalf("periods = %v, %v", ps, err)
	}
	scans := cs.scans.Load()
	for i := 0; i < 10; i++ {
		if _, err := tb.Periods(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := tb.GetPostings(context.Background(), pair); err != nil {
			t.Fatal(err)
		}
	}
	if cs.scans.Load() != scans {
		t.Fatalf("periods table re-scanned: %d -> %d", scans, cs.scans.Load())
	}

	// Re-registering a known period skips the idempotent store write.
	puts := cs.puts.Load()
	tb.AppendIndex("2026-01", pair, entry)
	if cs.puts.Load() != puts {
		t.Fatal("known period re-registered in the store")
	}

	if err := tb.DropPeriod("2026-01"); err != nil {
		t.Fatal(err)
	}
	ps, err = tb.Periods(context.Background())
	if err != nil || !reflect.DeepEqual(ps, []string{"2026-02"}) {
		t.Fatalf("periods after drop = %v, %v", ps, err)
	}

	// A fresh Tables over the same store sees the persisted list.
	ps, err = NewTables(cs).Periods(context.Background())
	if err != nil || !reflect.DeepEqual(ps, []string{"2026-02"}) {
		t.Fatalf("reopened periods = %v, %v", ps, err)
	}
}

// TestCacheConcurrentReadersAndWriters hammers reads, appends and drops from
// concurrent goroutines; run under -race (scripts/check.sh does). The final
// reads must agree with a cold cache-disabled view of the same store.
func TestCacheConcurrentReadersAndWriters(t *testing.T) {
	tb := NewTables(kvstore.NewMemStore())
	tb.SetCacheBudget(1 << 16)
	pairs := make([]model.PairKey, 8)
	for i := range pairs {
		pairs[i] = model.NewPairKey(model.ActivityID(i), model.ActivityID(i+1))
	}
	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, pair := range pairs {
					if _, err := postingsMerged(tb, pair); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(r)
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 100; i++ {
				period := ""
				if i%3 == 1 {
					period = fmt.Sprintf("p%d", w)
				}
				pair := pairs[(w*31+i)%len(pairs)]
				if err := tb.AppendIndex(period, pair, []IndexEntry{{Trace: model.TraceID(w*1000 + i), TsA: 1, TsB: 2}}); err != nil {
					t.Error(err)
					return
				}
				if i%25 == 24 {
					if err := tb.DropPeriod(fmt.Sprintf("p%d", w)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	cold := NewTables(tb.Store())
	cold.SetCacheBudget(-1)
	for _, pair := range pairs {
		warm, err := postingsMerged(tb, pair)
		if err != nil {
			t.Fatal(err)
		}
		want, err := scanIndexRowAllSorted(cold, pair)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(warm, want) {
			t.Fatalf("pair %v: warm %v != cold %v", pair, warm, want)
		}
	}
}

// gensLen counts the generations the cache holds across its shards.
func gensLen(c *postingsCache) int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.gens)
		s.mu.Unlock()
	}
	return n
}

// staleFill begins a fill of pair's whole row and reads the row, as a
// reader that misses does before it decodes.
func staleFill(tb *Tables, pair model.PairKey) (k cacheKey, gen, epoch uint64, row []IndexEntry) {
	k = cacheKey{pair: pair, block: wholeRowBlock}
	gen, epoch = tb.cache.begin(k)
	tb.segMu.RLock()
	defer tb.segMu.RUnlock()
	row, _ = tb.getTailLocked("", pair)
	return k, gen, epoch, row
}

// TestInvalidateRecordsOnlyReadKeys: an append records a generation only for
// a pair some reader has begun, so writes to unread pairs leave the cache's
// generation maps empty, and a sweep forgets every generation without
// letting a fill begun before it in.
func TestInvalidateRecordsOnlyReadKeys(t *testing.T) {
	tb := openSegTables(t, t.TempDir())
	defer tb.Close()
	for i := 0; i < 10000; i++ {
		pair := model.NewPairKey(model.ActivityID(i%100), model.ActivityID(i/100))
		if err := tb.AppendIndex("", pair, []IndexEntry{{Trace: model.TraceID(i), TsA: 1, TsB: 2}}); err != nil {
			t.Fatal(err)
		}
	}
	if n := gensLen(tb.cache); n != 0 {
		t.Fatalf("10000 appends of unread pairs left %d generations", n)
	}

	pair := model.NewPairKey(1, 2)
	appendOne := func(trace model.TraceID) {
		t.Helper()
		if err := tb.AppendIndex("", pair, []IndexEntry{{Trace: trace, TsA: 3, TsB: 4}}); err != nil {
			t.Fatal(err)
		}
	}
	k, gen, epoch, row := staleFill(tb, pair)
	appendOne(20000)
	tb.cache.put(k, gen, epoch, row)
	if _, ok := tb.cache.get(k); ok {
		t.Fatal("a fill begun before an append of its key was cached")
	}
	if _, err := postingsMerged(tb, pair); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.cache.get(k); !ok || gensLen(tb.cache) != 1 {
		t.Fatalf("a read left resident=%v, %d generations; want its row and 1", ok, gensLen(tb.cache))
	}

	// The freeze forgets the generation, so the append after it bumps none:
	// the epoch alone must refuse the fill begun before the freeze. The pair
	// was never read, so the fill's generation is the 0 an unregistered key
	// also reads as.
	pair = model.NewPairKey(3, 4)
	k, gen, epoch, row = staleFill(tb, pair)
	if err := tb.FreezePostings(); err != nil {
		t.Fatal(err)
	}
	if n := gensLen(tb.cache); n != 0 {
		t.Fatalf("FreezePostings left %d generations", n)
	}
	appendOne(20001)
	tb.cache.put(k, gen, epoch, row)
	if _, ok := tb.cache.get(k); ok {
		t.Fatal("a fill begun before a freeze was cached")
	}

	if err := tb.AppendIndex("p1", pair, []IndexEntry{{Trace: 1, TsA: 1, TsB: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := postingsMerged(tb, pair); err != nil {
		t.Fatal(err)
	}
	if err := tb.DropPeriod("p1"); err != nil {
		t.Fatal(err)
	}
	if n := gensLen(tb.cache); n != 0 {
		t.Fatalf("DropPeriod left %d generations", n)
	}
}
