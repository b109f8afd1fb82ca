package storage

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"seqlog/internal/kvstore"
	"seqlog/internal/model"
)

// openSegTables opens memory-backed tables with the segment tier enabled.
func openSegTables(t *testing.T, dir string) *Tables {
	t.Helper()
	tb, err := OpenTables(kvstore.NewMemStore(), Options{SegmentDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// segFixture appends a small three-pair, two-period dataset and returns the
// expected sorted entries per (period, pair).
func segFixture(t *testing.T, tb *Tables) map[segKey][]IndexEntry {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	want := map[segKey][]IndexEntry{}
	for _, k := range []segKey{
		{period: "", pair: model.NewPairKey(1, 2)},
		{period: "", pair: model.NewPairKey(2, 3)},
		{period: "2026-01", pair: model.NewPairKey(1, 2)},
	} {
		entries := randomSortedRun(rng, 300)
		// Append in two unsorted batches: the row order must not matter.
		half := len(entries) / 2
		shuffled := append(append([]IndexEntry(nil), entries[half:]...), entries[:half]...)
		if err := tb.AppendIndex(k.period, k.pair, shuffled[:half]); err != nil {
			t.Fatal(err)
		}
		if err := tb.AppendIndex(k.period, k.pair, shuffled[half:]); err != nil {
			t.Fatal(err)
		}
		sorted := append([]IndexEntry(nil), entries...)
		sortIndexEntries(sorted)
		want[k] = sorted
	}
	return want
}

func checkSegReads(t *testing.T, tb *Tables, want map[segKey][]IndexEntry) {
	t.Helper()
	for k, entries := range want {
		got, err := scanIndexRowSorted(tb, k.period, k.pair)
		if err != nil {
			t.Fatalf("sorted row (%q, %v): %v", k.period, k.pair, err)
		}
		if !reflect.DeepEqual(got, entries) {
			t.Fatalf("sorted row (%q, %v): %d entries, want %d", k.period, k.pair, len(got), len(entries))
		}
	}
	// GetPostings must expose every entry through its runs.
	for _, pair := range []model.PairKey{model.NewPairKey(1, 2), model.NewPairKey(2, 3)} {
		po, err := tb.GetPostings(context.Background(), pair)
		if err != nil {
			t.Fatal(err)
		}
		var all []IndexEntry
		for _, r := range po.Runs {
			entries := r.Entries
			if r.Blocks != nil {
				if entries, err = r.Blocks.All(); err != nil {
					t.Fatal(err)
				}
			}
			all = append(all, entries...)
		}
		wantN := 0
		for k, entries := range want {
			if k.pair == pair {
				wantN += len(entries)
			}
		}
		if len(all) != wantN {
			t.Fatalf("GetPostings(%v): %d entries, want %d", pair, len(all), wantN)
		}
		if int(po.Total()) != wantN {
			t.Fatalf("GetPostings(%v).Total() = %d, want %d", pair, po.Total(), wantN)
		}
	}
}

func TestFreezeRoundTrip(t *testing.T) {
	tb := openSegTables(t, t.TempDir())
	want := segFixture(t, tb)
	if err := tb.FreezePostings(); err != nil {
		t.Fatal(err)
	}
	// The kvstore tier must be empty now; reads come from the segment.
	for _, p := range []string{"", "2026-01"} {
		if n, _ := tb.store.Len(indexTable(p)); n != 0 {
			t.Fatalf("index table %q still holds %d rows after freeze", p, n)
		}
	}
	checkSegReads(t, tb, want)
	st := tb.SegmentStats()
	if st.Segments != 1 || st.Rows != 3 || st.Entries != 900 || st.Freezes != 1 || st.Bytes == 0 {
		t.Fatalf("SegmentStats = %+v", st)
	}
	if n, err := tb.NumIndexedPairs(context.Background(), ""); err != nil || n != 2 {
		t.Fatalf("NumIndexedPairs = %d %v", n, err)
	}
	periods, err := tb.Periods(context.Background())
	if err != nil || !reflect.DeepEqual(periods, []string{"2026-01"}) {
		t.Fatalf("Periods = %v %v", periods, err)
	}
}

func TestFreezeMergesTailAndRetiresOldFile(t *testing.T) {
	dir := t.TempDir()
	tb := openSegTables(t, dir)
	want := segFixture(t, tb)
	if err := tb.FreezePostings(); err != nil {
		t.Fatal(err)
	}
	// New entries for an existing pair plus a brand-new pair, then re-freeze:
	// the segment tail-merge must interleave, not concatenate.
	k := segKey{period: "", pair: model.NewPairKey(1, 2)}
	extra := []IndexEntry{{Trace: 0, TsA: 1, TsB: 2}, {Trace: 1 << 40, TsA: 9, TsB: 10}}
	if err := tb.AppendIndex(k.period, k.pair, extra); err != nil {
		t.Fatal(err)
	}
	merged := append(append([]IndexEntry(nil), want[k]...), extra...)
	sortIndexEntries(merged)
	want[k] = merged
	nk := segKey{period: "", pair: model.NewPairKey(7, 8)}
	want[nk] = []IndexEntry{{Trace: 5, TsA: 50, TsB: 60}}
	if err := tb.AppendIndex(nk.period, nk.pair, want[nk]); err != nil {
		t.Fatal(err)
	}
	if err := tb.FreezePostings(); err != nil {
		t.Fatal(err)
	}
	checkSegReads(t, tb, want)
	if st := tb.SegmentStats(); st.Freezes != 2 || st.Rows != 4 {
		t.Fatalf("SegmentStats = %+v", st)
	}
	// Exactly one segment file remains: the superseded one is deleted.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != segName(2) {
		t.Fatalf("segment dir after second freeze: %v", ents)
	}
}

func TestFreezeNoopAndDisabled(t *testing.T) {
	tb := openSegTables(t, t.TempDir())
	segFixture(t, tb)
	if err := tb.FreezePostings(); err != nil {
		t.Fatal(err)
	}
	// Nothing new: the second freeze must not write a segment.
	if err := tb.FreezePostings(); err != nil {
		t.Fatal(err)
	}
	if st := tb.SegmentStats(); st.Freezes != 1 {
		t.Fatalf("no-op freeze bumped Freezes: %+v", st)
	}
	if err := NewTables(kvstore.NewMemStore()).FreezePostings(); !errors.Is(err, ErrSegmentsDisabled) {
		t.Fatalf("freeze without segment dir: %v", err)
	}
}

func TestFreezeReopenFromDisk(t *testing.T) {
	root := t.TempDir()
	store, err := kvstore.OpenDisk(filepath.Join(root, "db"))
	if err != nil {
		t.Fatal(err)
	}
	segDir := filepath.Join(root, "segments")
	tb, err := OpenTables(store, Options{SegmentDir: segDir})
	if err != nil {
		t.Fatal(err)
	}
	want := segFixture(t, tb)
	if err := tb.FreezePostings(); err != nil {
		t.Fatal(err)
	}
	// Entries appended after the freeze live in the kvstore tier and must
	// survive the reopen alongside the segment.
	k := segKey{period: "", pair: model.NewPairKey(1, 2)}
	tail := []IndexEntry{{Trace: 2, TsA: 3, TsB: 4}}
	if err := tb.AppendIndex(k.period, k.pair, tail); err != nil {
		t.Fatal(err)
	}
	merged := append(append([]IndexEntry(nil), want[k]...), tail...)
	sortIndexEntries(merged)
	want[k] = merged
	tb.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := kvstore.OpenDisk(filepath.Join(root, "db"))
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	tb2, err := OpenTables(store2, Options{SegmentDir: segDir})
	if err != nil {
		t.Fatal(err)
	}
	defer tb2.Close()
	checkSegReads(t, tb2, want)
	if st := tb2.SegmentStats(); st.Segments != 1 || st.Freezes != 0 {
		t.Fatalf("SegmentStats after reopen = %+v", st)
	}

	// A store referencing a segment cannot open without a segment directory.
	store3, err := kvstore.OpenDisk(filepath.Join(root, "db"))
	if err != nil {
		t.Fatal(err)
	}
	defer store3.Close()
	if _, err := OpenTables(store3, Options{}); err == nil {
		t.Fatal("open without segment dir succeeded despite referenced segment")
	}
}

func TestDropPeriodTombstonesSegment(t *testing.T) {
	root := t.TempDir()
	store, err := kvstore.OpenDisk(filepath.Join(root, "db"))
	if err != nil {
		t.Fatal(err)
	}
	segDir := filepath.Join(root, "segments")
	tb, err := OpenTables(store, Options{SegmentDir: segDir})
	if err != nil {
		t.Fatal(err)
	}
	want := segFixture(t, tb)
	if err := tb.FreezePostings(); err != nil {
		t.Fatal(err)
	}
	if err := tb.DropPeriod("2026-01"); err != nil {
		t.Fatal(err)
	}
	delete(want, segKey{period: "2026-01", pair: model.NewPairKey(1, 2)})

	// Dropped immediately ...
	all, err := postingsMerged(tb, model.NewPairKey(1, 2))
	if err != nil || len(all) != 300 {
		t.Fatalf("after drop: %d postings, %v", len(all), err)
	}
	if row, err := scanIndexRowAllSorted(tb, model.NewPairKey(1, 2)); err != nil || !reflect.DeepEqual(row, all) {
		t.Fatalf("after drop: scan sees %d entries, %v", len(row), err)
	}
	// ... and still dropped after a reopen (the tombstone is durable even
	// though the segment file still holds the period).
	tb.Close()
	store.Close()
	store, err = kvstore.OpenDisk(filepath.Join(root, "db"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	tb, err = OpenTables(store, Options{SegmentDir: segDir})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	checkSegReads(t, tb, want)

	// The next freeze compacts the tombstone away for real.
	if err := tb.AppendIndex("", model.NewPairKey(9, 9), []IndexEntry{{Trace: 1, TsA: 1, TsB: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := tb.FreezePostings(); err != nil {
		t.Fatal(err)
	}
	tb.segMu.RLock()
	dropped := tb.seg.periods["2026-01"]
	tb.segMu.RUnlock()
	if dropped != 0 {
		t.Fatal("freeze carried a tombstoned period into the new segment")
	}
	if raw, ok, _ := store.Get(tableMeta, metaSegDroppedKey); ok {
		t.Fatalf("tombstone list not cleared: %q", raw)
	}
}

func TestFutureFormatRefused(t *testing.T) {
	store := kvstore.NewMemStore()
	store.Put(tableMeta, metaFormatKey, []byte("3"))
	if _, err := OpenTables(store, Options{}); !errors.Is(err, ErrFutureFormat) {
		t.Fatalf("format 3 open: %v", err)
	}
	store2 := kvstore.NewMemStore()
	store2.Put(tableMeta, metaFormatKey, []byte("bogus"))
	if _, err := OpenTables(store2, Options{}); !errors.Is(err, ErrFutureFormat) {
		t.Fatalf("unparseable format open: %v", err)
	}
}

func TestCorruptSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	store := kvstore.NewMemStore()
	tb, err := OpenTables(store, Options{SegmentDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	segFixture(t, tb)
	if err := tb.FreezePostings(); err != nil {
		t.Fatal(err)
	}
	tb.Close()
	path := filepath.Join(dir, segName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTables(store, Options{SegmentDir: dir}); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("corrupt segment open: %v", err)
	}
}

// TestSegmentBoundsOverflowRejected pins the overflow-safe directory checks:
// offsets near 2^64 whose sums wrap back into range must fail parse as
// ErrCorruptSegment instead of sending a negative int into a slice expression.
// Both crafted files carry a correct CRC — the wrap is only caught by the
// bounds checks themselves.
func TestSegmentBoundsOverflowRejected(t *testing.T) {
	writeSeg := func(t *testing.T, buf []byte, dirOff, dirLen uint64) string {
		t.Helper()
		crc := crc32.ChecksumIEEE(buf)
		var tr [segTrailer]byte
		binary.BigEndian.PutUint64(tr[0:8], dirOff)
		binary.BigEndian.PutUint64(tr[8:16], dirLen)
		binary.BigEndian.PutUint32(tr[16:20], crc)
		copy(tr[20:24], segTailMagic)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), append(buf, tr[:]...), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("trailer", func(t *testing.T) {
		// dirOff near 2^64 with dirLen chosen so the sum wraps to exactly
		// len(d)-segTrailer: the old equality check passed and the CRC region
		// d[:dirOff+dirLen] still covered the true bytes, so the first failure
		// was the negative-int directory slice.
		buf := append([]byte(segMagic), encodePostingsBlocks(nil, []IndexEntry{{Trace: 1, TsA: 1, TsB: 2}})...)
		end := uint64(len(buf))
		const wrap = uint64(1) << 63
		dir := writeSeg(t, buf, ^uint64(0)-wrap+1, end+wrap)
		if _, err := openSegment(kvstore.OSFS, dir, segName(1)); !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("wrapped trailer bounds: %v", err)
		}
	})

	t.Run("row", func(t *testing.T) {
		// A directory row whose blob off is near 2^64: off+blen wraps below
		// dirOff, so the old check passed and int(off) went negative.
		buf := append([]byte(segMagic), encodePostingsBlocks(nil, []IndexEntry{{Trace: 1, TsA: 1, TsB: 2}})...)
		dirOff := uint64(len(buf))
		buf = binary.AppendUvarint(buf, 1) // rowCount
		buf = binary.AppendUvarint(buf, 0) // len(period)
		var pk [8]byte
		binary.BigEndian.PutUint64(pk[:], 42)
		buf = append(buf, pk[:]...)
		buf = binary.AppendUvarint(buf, ^uint64(0)-2) // off
		buf = binary.AppendUvarint(buf, 5)            // blen: off+blen wraps below dirOff
		buf = binary.AppendUvarint(buf, 1)            // entry count
		dir := writeSeg(t, buf, dirOff, uint64(len(buf))-dirOff)
		if _, err := openSegment(kvstore.OSFS, dir, segName(1)); !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("wrapped row bounds: %v", err)
		}
	})
}

// TestBlockRunCacheIsolatedAcrossFreeze pins the segment identity carried in
// postings-cache keys: a BlockRun handed out before a freeze must keep
// serving its own segment's blocks even after a post-freeze reader has cached
// the successor segment's block for the same (period, pair, index) — the
// successor's block 0 holds merged bytes the old run's skip headers know
// nothing about.
func TestBlockRunCacheIsolatedAcrossFreeze(t *testing.T) {
	tb := openSegTables(t, t.TempDir())
	defer tb.Close()
	pair := model.NewPairKey(1, 2)
	rng := rand.New(rand.NewSource(7))
	if err := tb.AppendIndex("", pair, randomSortedRun(rng, 3*postingsBlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := tb.FreezePostings(); err != nil {
		t.Fatal(err)
	}
	po, err := tb.GetPostings(context.Background(), pair)
	if err != nil {
		t.Fatal(err)
	}
	if len(po.Runs) != 1 || po.Runs[0].Blocks == nil {
		t.Fatalf("postings after freeze: %d runs", len(po.Runs))
	}
	oldRun := po.Runs[0].Blocks
	// AppendBlock bypasses the cache in both directions: the reference decode.
	wantOld, err := oldRun.AppendBlock(nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Freeze a merged successor whose block 0 differs (the new entries sort
	// before everything already frozen), then cache its block 0 the way a
	// post-freeze query would.
	head := []IndexEntry{{Trace: 0, TsA: 1, TsB: 2}, {Trace: 0, TsA: 3, TsB: 4}}
	if err := tb.AppendIndex("", pair, head); err != nil {
		t.Fatal(err)
	}
	if err := tb.FreezePostings(); err != nil {
		t.Fatal(err)
	}
	po2, err := tb.GetPostings(context.Background(), pair)
	if err != nil {
		t.Fatal(err)
	}
	if len(po2.Runs) != 1 || po2.Runs[0].Blocks == nil {
		t.Fatalf("postings after second freeze: %d runs", len(po2.Runs))
	}
	newBlock, err := po2.Runs[0].Blocks.Block(0)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(newBlock, wantOld) {
		t.Fatal("fixture broken: successor block 0 equals the old segment's block 0")
	}

	// The pre-freeze run must decode its own bytes, not hit the successor's
	// freshly cached block under a colliding key.
	got, err := oldRun.Block(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantOld) {
		t.Fatal("pre-freeze BlockRun served the successor segment's cached block")
	}
}

func TestCleanSegmentDirRemovesStrays(t *testing.T) {
	dir := t.TempDir()
	store := kvstore.NewMemStore()
	tb, err := OpenTables(store, Options{SegmentDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	segFixture(t, tb)
	if err := tb.FreezePostings(); err != nil {
		t.Fatal(err)
	}
	tb.Close()
	// Simulate crash leftovers: an unreferenced newer segment, a temp file,
	// and an unrelated file that must be left alone.
	for _, name := range []string{segName(9), segName(2) + ".tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	tb2, err := OpenTables(store, Options{SegmentDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer tb2.Close()
	names := []string{}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		names = append(names, e.Name())
	}
	want := []string{"README", segName(1)}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("segment dir after clean = %v, want %v", names, want)
	}
}
