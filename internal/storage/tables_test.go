package storage

import (
	"context"

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

func TestReverseCountsIndependent(t *testing.T) {
	tb := newTables(t)
	tb.MergeCounts(1, []CountEntry{{Other: 2, SumDuration: 1, Completions: 1}})
	tb.MergeReverseCounts(2, []CountEntry{{Other: 1, SumDuration: 1, Completions: 1}})
	fw, _ := tb.GetCounts(context.Background(), 1)
	rv, _ := tb.GetReverseCounts(context.Background(), 2)
	if len(fw) != 1 || len(rv) != 1 || fw[0].Other != 2 || rv[0].Other != 1 {
		t.Fatalf("fw=%v rv=%v", fw, rv)
	}
	// The two tables must not alias.
	if got, _ := tb.GetReverseCounts(context.Background(), 1); got != nil {
		t.Fatalf("reverse row leaked from forward write: %v", got)
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

func TestLastChecked(t *testing.T) {
	tb := newTables(t)
	pair := model.NewPairKey(1, 2)
	if err := tb.MergeLastChecked(pair, map[model.TraceID]model.Timestamp{1: 10, 2: 20}); err != nil {
		t.Fatal(err)
	}
	// Max wins; lower timestamps never regress the watermark.
	if err := tb.MergeLastChecked(pair, map[model.TraceID]model.Timestamp{1: 5, 3: 30}); err != nil {
		t.Fatal(err)
	}
	got, err := tb.GetLastChecked(context.Background(), pair)
	if err != nil {
		t.Fatal(err)
	}
	want := map[model.TraceID]model.Timestamp{1: 10, 2: 20, 3: 30}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LastChecked = %v", got)
	}
	if err := tb.MergeLastChecked(pair, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPruneLastChecked(t *testing.T) {
	tb := newTables(t)
	p1 := model.NewPairKey(1, 2)
	p2 := model.NewPairKey(2, 3)
	tb.MergeLastChecked(p1, map[model.TraceID]model.Timestamp{1: 10, 2: 20})
	tb.MergeLastChecked(p2, map[model.TraceID]model.Timestamp{2: 20})

	if err := tb.PruneLastChecked(map[model.TraceID]bool{2: true}); err != nil {
		t.Fatal(err)
	}
	got1, _ := tb.GetLastChecked(context.Background(), p1)
	if !reflect.DeepEqual(got1, map[model.TraceID]model.Timestamp{1: 10}) {
		t.Fatalf("p1 after prune: %v", got1)
	}
	// p2's row became empty and must be deleted outright.
	got2, _ := tb.GetLastChecked(context.Background(), p2)
	if len(got2) != 0 {
		t.Fatalf("p2 after prune: %v", got2)
	}
	if err := tb.PruneLastChecked(nil); err != nil {
		t.Fatal(err)
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
	store.Put("lastchecked", pairKeyString(model.NewPairKey(1, 2)), []byte{0x80})
	if _, err := tb.GetLastChecked(context.Background(), model.NewPairKey(1, 2)); err == nil {
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
