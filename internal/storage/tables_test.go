package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"seqlog/internal/kvstore"
	"seqlog/internal/model"
)

func newTables(t *testing.T) *Tables {
	t.Helper()
	return NewTables(kvstore.NewMemStore())
}

func TestSeqRoundTrip(t *testing.T) {
	tb := newTables(t)
	evs := []model.TraceEvent{{Activity: 1, TS: 10}, {Activity: 2, TS: 20}}
	if err := tb.AppendSeq(5, evs); err != nil {
		t.Fatal(err)
	}
	got, ok, err := tb.GetSeq(context.Background(), 5)
	if err != nil || !ok || !reflect.DeepEqual(got, evs) {
		t.Fatalf("GetSeq = %v %v %v", got, ok, err)
	}
	// Appending extends the sequence.
	if err := tb.AppendSeq(5, []model.TraceEvent{{Activity: 3, TS: 30}}); err != nil {
		t.Fatal(err)
	}
	got, _, _ = tb.GetSeq(context.Background(), 5)
	if len(got) != 3 || got[2].Activity != 3 {
		t.Fatalf("after append: %v", got)
	}
	if _, ok, _ := tb.GetSeq(context.Background(), 99); ok {
		t.Fatal("missing trace reported present")
	}
	if n, _ := tb.NumTraces(context.Background()); n != 1 {
		t.Fatalf("NumTraces = %d", n)
	}
	if err := tb.DeleteSeq(5); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tb.GetSeq(context.Background(), 5); ok {
		t.Fatal("DeleteSeq left trace")
	}
}

func TestSeqEmptyAppendIsNoop(t *testing.T) {
	tb := newTables(t)
	if err := tb.AppendSeq(1, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tb.GetSeq(context.Background(), 1); ok {
		t.Fatal("empty append created a row")
	}
}

func TestSeqScan(t *testing.T) {
	tb := newTables(t)
	tb.AppendSeq(1, []model.TraceEvent{{Activity: 1, TS: 1}})
	tb.AppendSeq(2, []model.TraceEvent{{Activity: 2, TS: 2}})
	seen := map[model.TraceID]int{}
	err := tb.ScanSeq(context.Background(), func(id model.TraceID, evs []model.TraceEvent) error {
		seen[id] = len(evs)
		return nil
	})
	if err != nil || len(seen) != 2 || seen[1] != 1 || seen[2] != 1 {
		t.Fatalf("ScanSeq: %v %v", seen, err)
	}
}

func TestIndexRoundTrip(t *testing.T) {
	tb := newTables(t)
	pair := model.NewPairKey(1, 2)
	in := []IndexEntry{{Trace: 7, TsA: 100, TsB: 150}, {Trace: 9, TsA: 5, TsB: 6}}
	if err := tb.AppendIndex("", pair, in); err != nil {
		t.Fatal(err)
	}
	got, err := scanIndexRow(tb, "", pair)
	if err != nil || !reflect.DeepEqual(got, in) {
		t.Fatalf("index row = %v %v", got, err)
	}
	// Appending a second batch extends the row.
	if err := tb.AppendIndex("", pair, []IndexEntry{{Trace: 7, TsA: 200, TsB: 210}}); err != nil {
		t.Fatal(err)
	}
	got, _ = scanIndexRow(tb, "", pair)
	if len(got) != 3 || got[2].TsA != 200 {
		t.Fatalf("after append: %v", got)
	}
	if got, err := scanIndexRow(tb, "", model.NewPairKey(3, 4)); err != nil || got != nil {
		t.Fatalf("missing pair: %v %v", got, err)
	}
	if po, err := tb.GetPostings(context.Background(), model.NewPairKey(3, 4)); err != nil || !po.Empty() {
		t.Fatalf("missing pair postings: %v %v", po, err)
	}
	if n, _ := tb.NumIndexedPairs(context.Background(), ""); n != 1 {
		t.Fatalf("NumIndexedPairs = %d", n)
	}
}

func TestIndexPeriods(t *testing.T) {
	tb := newTables(t)
	pair := model.NewPairKey(1, 2)
	tb.AppendIndex("", pair, []IndexEntry{{Trace: 1, TsA: 1, TsB: 2}})
	tb.AppendIndex("2026-01", pair, []IndexEntry{{Trace: 2, TsA: 3, TsB: 4}})
	tb.AppendIndex("2026-02", pair, []IndexEntry{{Trace: 3, TsA: 5, TsB: 6}})

	periods, err := tb.Periods(context.Background())
	if err != nil || !reflect.DeepEqual(periods, []string{"2026-01", "2026-02"}) {
		t.Fatalf("Periods = %v %v", periods, err)
	}
	all, err := scanIndexRowAll(tb, pair)
	if err != nil || len(all) != 3 {
		t.Fatalf("all-period row = %v %v", all, err)
	}
	if all[0].Trace != 1 || all[1].Trace != 2 || all[2].Trace != 3 {
		t.Fatalf("cross-period order: %v", all)
	}
	if err := tb.DropPeriod("2026-01"); err != nil {
		t.Fatal(err)
	}
	all, _ = scanIndexRowAll(tb, pair)
	if len(all) != 2 {
		t.Fatalf("after DropPeriod: %v", all)
	}
	periods, _ = tb.Periods(context.Background())
	if !reflect.DeepEqual(periods, []string{"2026-02"}) {
		t.Fatalf("Periods after drop = %v", periods)
	}
}

func TestIndexScan(t *testing.T) {
	tb := newTables(t)
	tb.AppendIndex("", model.NewPairKey(1, 2), []IndexEntry{{Trace: 1, TsA: 1, TsB: 2}})
	tb.AppendIndex("", model.NewPairKey(3, 4), []IndexEntry{{Trace: 1, TsA: 2, TsB: 3}})
	n := 0
	err := tb.ScanIndex(context.Background(), "", func(k model.PairKey, es []IndexEntry) error {
		n += len(es)
		return nil
	})
	if err != nil || n != 2 {
		t.Fatalf("ScanIndex: %d %v", n, err)
	}
}

func TestCountsMerge(t *testing.T) {
	tb := newTables(t)
	a := model.ActivityID(1)
	if err := tb.MergeCounts(a, []CountEntry{{Other: 2, SumDuration: 10, Completions: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := tb.MergeCounts(a, []CountEntry{
		{Other: 2, SumDuration: 5, Completions: 1},
		{Other: 3, SumDuration: 7, Completions: 1},
	}); err != nil {
		t.Fatal(err)
	}
	got, err := tb.GetCounts(context.Background(), a)
	if err != nil || len(got) != 2 {
		t.Fatalf("GetCounts = %v %v", got, err)
	}
	byOther := map[model.ActivityID]CountEntry{}
	for _, e := range got {
		byOther[e.Other] = e
	}
	if e := byOther[2]; e.SumDuration != 15 || e.Completions != 3 {
		t.Fatalf("merged entry: %+v", e)
	}
	if e := byOther[3]; e.SumDuration != 7 || e.Completions != 1 {
		t.Fatalf("new entry: %+v", e)
	}
	if e, ok, _ := tb.GetPairCount(context.Background(), a, 2); !ok || e.Completions != 3 {
		t.Fatalf("GetPairCount = %+v %v", e, ok)
	}
	if _, ok, _ := tb.GetPairCount(context.Background(), a, 9); ok {
		t.Fatal("GetPairCount found absent pair")
	}
	if got, _ := tb.GetCounts(context.Background(), 99); got != nil {
		t.Fatalf("counts of unknown activity: %v", got)
	}
}

func TestCountEntryAvgDuration(t *testing.T) {
	if (CountEntry{}).AvgDuration() != 0 {
		t.Fatal("zero completions should yield 0 average")
	}
	e := CountEntry{SumDuration: 10, Completions: 4}
	if e.AvgDuration() != 2.5 {
		t.Fatalf("AvgDuration = %v", e.AvgDuration())
	}
}

// lastCheckedRow is the raw lastchecked row of pair.
func lastCheckedRow(t *testing.T, tb *Tables, pair model.PairKey) []byte {
	t.Helper()
	raw, _, err := tb.store.Get(tableLast, pairKeyString(pair))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// appendCompletions appends one entry per TsB to pair's row in period.
func appendCompletions(t *testing.T, tb *Tables, period string, pair model.PairKey, tsBs ...model.Timestamp) {
	t.Helper()
	for i, ts := range tsBs {
		if err := tb.AppendIndex(period, pair, []IndexEntry{{Trace: model.TraceID(i + 1), TsA: ts - 3, TsB: ts}}); err != nil {
			t.Fatal(err)
		}
	}
}

func wantLastCompletion(t *testing.T, tb *Tables, pair model.PairKey, want model.Timestamp) {
	t.Helper()
	if got, err := tb.GetLastCompletion(context.Background(), pair); got != want || err != nil {
		t.Fatalf("LastCompletion(%v) = %d, %v; want %d", pair, got, err, want)
	}
}

// TestLastChecked: a pair's last completion is the largest TsB over its
// memtable tails, its segment runs and the residual row of dropped periods;
// appending writes no row, dropping a period writes the row.
func TestLastChecked(t *testing.T) {
	tb := openSegTables(t, t.TempDir())
	pair := model.NewPairKey(1, 2)
	wantLastCompletion(t, tb, pair, 0)
	appendCompletions(t, tb, "", pair, 10, 5)
	appendCompletions(t, tb, "p1", pair, 30)
	wantLastCompletion(t, tb, pair, 30)
	// A first completion before the epoch is an answer, not "never".
	neg := model.NewPairKey(2, 3)
	appendCompletions(t, tb, "", neg, -7, -9)
	wantLastCompletion(t, tb, neg, -7)
	if err := tb.FreezePostings(); err != nil {
		t.Fatal(err)
	}
	wantLastCompletion(t, tb, pair, 30) // skip headers only
	appendCompletions(t, tb, "", pair, 20)
	wantLastCompletion(t, tb, pair, 30) // headers and a tail
	if raw := lastCheckedRow(t, tb, pair); raw != nil {
		t.Fatalf("appends wrote lastchecked row %x", raw)
	}
	// Dropping the partition that held the maximum leaves it as the row.
	if err := tb.DropPeriod("p1"); err != nil {
		t.Fatal(err)
	}
	if got := lastCheckedRow(t, tb, pair); !bytes.Equal(got, binary.AppendVarint(nil, 30)) {
		t.Fatalf("row after dropping p1 = %x, want the one varint of 30", got)
	}
	wantLastCompletion(t, tb, pair, 30)
	appendCompletions(t, tb, "", pair, 40)
	wantLastCompletion(t, tb, pair, 40)
	// The default partition's segment run and tail fold in together.
	if err := tb.DropPeriod(""); err != nil {
		t.Fatal(err)
	}
	wantLastCompletion(t, tb, pair, 40)
	wantLastCompletion(t, tb, neg, -7)
	if err := tb.FreezePostings(); err != nil {
		t.Fatal(err)
	}
	wantLastCompletion(t, tb, pair, 40)
}

// TestLastCheckedMergeOrderIndependent: however a pair's completions are
// split across appends, partitions and drops, and in whatever order they
// arrive, the answer is their maximum and the residual row the same one
// varint.
func TestLastCheckedMergeOrderIndependent(t *testing.T) {
	pair := model.NewPairKey(1, 2)
	want := binary.AppendVarint(nil, 30)
	var permute func(done, rest []model.Timestamp)
	permute = func(done, rest []model.Timestamp) {
		if len(rest) == 0 {
			tb := newTables(t)
			periods := []string{"", "a", "b"}
			for i, ts := range done {
				appendCompletions(t, tb, periods[i%len(periods)], pair, ts)
			}
			wantLastCompletion(t, tb, pair, 30)
			for _, p := range periods {
				if err := tb.DropPeriod(p); err != nil {
					t.Fatal(err)
				}
			}
			wantLastCompletion(t, tb, pair, 30)
			if got := lastCheckedRow(t, tb, pair); !bytes.Equal(got, want) {
				t.Fatalf("order %v stored %x, want %x", done, got, want)
			}
			return
		}
		for i := range rest {
			next := append(append([]model.Timestamp{}, rest[:i]...), rest[i+1:]...)
			permute(append(done, rest[i]), next)
		}
	}
	permute(nil, []model.Timestamp{10, 5, 30, -2})
}

// Rows written by builds that kept a per-trace map, byte for byte as their
// encoder produced them: (uvarint trace, varint ts) in trace order.
var (
	legacyRowA = []byte{0x3, 0x1, 0x7, 0xc8, 0x1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 0x12} // {3:-1, 7:100, 1<<40:9}
	legacyRowB = []byte{0x1, 0x14, 0x2, 0x28, 0x3, 0x3c}                                    // {1:10, 2:20, 3:30}
)

// TestLastCheckedLegacyRow: a legacy map row reads as its max, a lower bound
// the postings can beat, and a drop that raises it rewrites it as a scalar; a
// damaged row of either shape is an error to both.
func TestLastCheckedLegacyRow(t *testing.T) {
	tb := newTables(t)
	pa, pb := model.NewPairKey(1, 2), model.NewPairKey(2, 3)
	tb.store.Put(tableLast, pairKeyString(pa), legacyRowA)
	tb.store.Put(tableLast, pairKeyString(pb), legacyRowB)
	wantLastCompletion(t, tb, pa, 100)
	wantLastCompletion(t, tb, pb, 30)
	appendCompletions(t, tb, "p", pa, 40)
	appendCompletions(t, tb, "p", pb, 31)
	wantLastCompletion(t, tb, pa, 100)
	wantLastCompletion(t, tb, pb, 31)
	if err := tb.DropPeriod("p"); err != nil {
		t.Fatal(err)
	}
	if got := lastCheckedRow(t, tb, pa); !bytes.Equal(got, binary.AppendVarint(nil, 100)) {
		t.Fatalf("row A after drop = %x, want the one varint of 100", got)
	}
	if got := lastCheckedRow(t, tb, pb); !bytes.Equal(got, binary.AppendVarint(nil, 31)) {
		t.Fatalf("row B after drop = %x, want the one varint of 31", got)
	}
	wantLastCompletion(t, tb, pa, 100)
	wantLastCompletion(t, tb, pb, 31)

	appendCompletions(t, tb, "p", pa, 1)
	for name, raw := range map[string][]byte{
		"empty":                    {},
		"truncated scalar":         {0x80},
		"truncated legacy":         legacyRowA[:len(legacyRowA)-2],
		"legacy missing timestamp": legacyRowB[:len(legacyRowB)-1],
		"scalar then garbage":      {0x14, 0xff},
		"legacy then garbage":      append(append([]byte{}, legacyRowB...), 0x80),
	} {
		if ts, err := decodeLastCompletion(raw); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s row %x decoded to %d, %v; want ErrCorrupt", name, raw, ts, err)
		}
		tb.store.Put(tableLast, pairKeyString(pa), raw)
		if _, err := tb.GetLastCompletion(context.Background(), pa); !errors.Is(err, ErrCorrupt) {
			t.Errorf("read over %s row: %v, want ErrCorrupt", name, err)
		}
		if err := tb.DropPeriod("p"); !errors.Is(err, ErrCorrupt) {
			t.Errorf("drop over %s row: %v, want ErrCorrupt", name, err)
		}
	}
}

func TestMeta(t *testing.T) {
	tb := newTables(t)
	if err := tb.PutMeta("policy", []byte("STNM")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := tb.GetMeta("policy")
	if err != nil || !ok || string(v) != "STNM" {
		t.Fatalf("GetMeta = %q %v %v", v, ok, err)
	}
	if _, ok, _ := tb.GetMeta("absent"); ok {
		t.Fatal("absent meta reported present")
	}
}

func TestCodecProperties(t *testing.T) {
	seqRT := func(acts []uint8, tss []int16) bool {
		n := len(acts)
		if len(tss) < n {
			n = len(tss)
		}
		evs := make([]model.TraceEvent, n)
		for i := 0; i < n; i++ {
			evs[i] = model.TraceEvent{Activity: model.ActivityID(acts[i]), TS: model.Timestamp(tss[i])}
		}
		got, err := decodeSeq(encodeSeq(nil, evs))
		if err != nil {
			return false
		}
		if n == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, evs)
	}
	if err := quick.Check(seqRT, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}

	idxRT := func(traces []uint16, tsa []int16, dur []uint8) bool {
		n := len(traces)
		if len(tsa) < n {
			n = len(tsa)
		}
		if len(dur) < n {
			n = len(dur)
		}
		in := make([]IndexEntry, n)
		for i := 0; i < n; i++ {
			in[i] = IndexEntry{
				Trace: model.TraceID(traces[i]),
				TsA:   model.Timestamp(tsa[i]),
				TsB:   model.Timestamp(int64(tsa[i]) + int64(dur[i])),
			}
		}
		got, err := decodeIndexEntries(encodeIndexEntries(nil, in))
		if err != nil {
			return false
		}
		if n == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, in)
	}
	if err := quick.Check(idxRT, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptRowsSurfaceErrors(t *testing.T) {
	store := kvstore.NewMemStore()
	tb := NewTables(store)
	// A value that is not a valid varint stream (0x80 = unterminated).
	store.Put("seq", traceKeyString(1), []byte{0x80})
	if _, _, err := tb.GetSeq(context.Background(), 1); err == nil {
		t.Fatal("corrupt seq row not detected")
	}
	store.Put("index", pairKeyString(model.NewPairKey(1, 2)), []byte{0x80})
	if _, err := tb.GetPostings(context.Background(), model.NewPairKey(1, 2)); err == nil {
		t.Fatal("corrupt index row not detected by GetPostings")
	}
	if _, err := scanIndexRow(tb, "", model.NewPairKey(1, 2)); err == nil {
		t.Fatal("corrupt index row not detected by ScanIndex")
	}
	store.Put("count", activityKeyString(1), []byte{0x80})
	if _, err := tb.GetCounts(context.Background(), 1); err == nil {
		t.Fatal("corrupt count row not detected")
	}
	// MergeCounts walks the stored row: a truncated row and one whose
	// Others descend (2 after 9, golden bytes) are corrupt, not merged.
	delta := []CountEntry{{Other: 5, SumDuration: 1, Completions: 1}}
	for _, row := range [][]byte{{0x02, 0x0a}, {0x09, 0x02, 0x01, 0x02, 0x04, 0x02}} {
		store.Put("count", activityKeyString(2), row)
		if err := tb.MergeCounts(2, delta); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("MergeCounts over count row %x: err %v, want ErrCorrupt", row, err)
		}
	}
	store.Put("lastchecked", pairKeyString(model.NewPairKey(3, 4)), []byte{0x80})
	if _, err := tb.GetLastCompletion(context.Background(), model.NewPairKey(3, 4)); err == nil {
		t.Fatal("corrupt lastchecked row not detected")
	}
	// Malformed keys are detected on scans.
	store.Put("seq", "short", nil)
	if err := tb.ScanSeq(context.Background(), func(model.TraceID, []model.TraceEvent) error { return nil }); err == nil {
		t.Fatal("corrupt seq key not detected")
	}
}

func TestKeyCodecs(t *testing.T) {
	k := model.NewPairKey(3, 4)
	got, err := parsePairKey(pairKeyString(k))
	if err != nil || got != k {
		t.Fatalf("pair key round trip: %v %v", got, err)
	}
	id, err := parseTraceKey(traceKeyString(12345))
	if err != nil || id != 12345 {
		t.Fatalf("trace key round trip: %v %v", id, err)
	}
	a, err := parseActivityKey(activityKeyString(77))
	if err != nil || a != 77 {
		t.Fatalf("activity key round trip: %v %v", a, err)
	}
	if _, err := parsePairKey("x"); err == nil {
		t.Fatal("bad pair key accepted")
	}
	if _, err := parseTraceKey("x"); err == nil {
		t.Fatal("bad trace key accepted")
	}
	if _, err := parseActivityKey("x"); err == nil {
		t.Fatal("bad activity key accepted")
	}
}

func TestLargeIndexRow(t *testing.T) {
	tb := newTables(t)
	pair := model.NewPairKey(1, 2)
	rng := rand.New(rand.NewSource(9))
	var want []IndexEntry
	for batch := 0; batch < 10; batch++ {
		entries := make([]IndexEntry, 500)
		for i := range entries {
			tsA := model.Timestamp(rng.Int63n(1 << 40))
			entries[i] = IndexEntry{
				Trace: model.TraceID(rng.Int63n(1 << 30)),
				TsA:   tsA,
				TsB:   tsA + model.Timestamp(rng.Int63n(1<<20)+1),
			}
		}
		want = append(want, entries...)
		if err := tb.AppendIndex("", pair, entries); err != nil {
			t.Fatal(err)
		}
	}
	got, err := scanIndexRow(tb, "", pair)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("large row mismatch: %d entries, err=%v", len(got), err)
	}
}

func TestRecoveryPassthrough(t *testing.T) {
	// Memory-backed tables report a clean zero value.
	if r := newTables(t).Recovery(); r != (kvstore.RecoveryStats{}) {
		t.Fatalf("mem recovery = %+v", r)
	}
	// Disk-backed tables surface the store's replay counters.
	dir := t.TempDir()
	s, err := kvstore.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("t", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := kvstore.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if r := NewTables(s2).Recovery(); r.WALReplayed != 1 || r.Degraded() {
		t.Fatalf("disk recovery = %+v", r)
	}
}
