package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"seqlog/internal/kvstore"
	"seqlog/internal/model"
)

// shipAll reads the primary's whole durable WAL range.
func shipAll(t *testing.T, s *kvstore.DiskStore) []byte {
	t.Helper()
	st, err := s.ReplState()
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, st.WALDurable-st.WALStart)
	if len(data) == 0 {
		return nil
	}
	if _, err := s.ReadLogAt(st.Epoch, st.WALStart, data); err != nil {
		t.Fatal(err)
	}
	return data
}

// parseGroups splits a shipped byte range into apply units: batch groups
// become one unit, bare records become singleton units. Values are copied.
func parseGroups(t *testing.T, data []byte) [][]kvstore.Record {
	t.Helper()
	var groups [][]kvstore.Record
	var cur []kvstore.Record
	inBatch := false
	off := 0
	for off < len(data) {
		rec, next, err := kvstore.ParseRecord(data, off)
		if err != nil {
			t.Fatalf("ParseRecord at %d: %v", off, err)
		}
		rec.Value = append([]byte(nil), rec.Value...)
		switch rec.Op {
		case kvstore.OpBatchBegin:
			inBatch, cur = true, nil
		case kvstore.OpBatchCommit:
			groups = append(groups, cur)
			inBatch, cur = false, nil
		default:
			if inBatch {
				cur = append(cur, rec)
			} else {
				groups = append(groups, []kvstore.Record{rec})
			}
		}
		off = next
	}
	if inBatch {
		t.Fatal("shipped range ends inside an open group")
	}
	return groups
}

func openPrimary(t *testing.T, dir string) (*Tables, *kvstore.DiskStore) {
	t.Helper()
	store, err := kvstore.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := OpenTables(store, Options{SegmentDir: filepath.Join(dir, "segments")})
	if err != nil {
		t.Fatal(err)
	}
	return tb, store
}

// ingestBatch writes one flush-like batch group on the primary.
func ingestBatch(t *testing.T, tb *Tables, period string, base int) {
	t.Helper()
	bw := tb.Batch()
	if err := bw.BeginBatch(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		pair := model.NewPairKey(model.ActivityID(base+i), model.ActivityID(base+i+1))
		err := tb.AppendIndex(period, pair, []IndexEntry{
			{Trace: model.TraceID(base), TsA: model.Timestamp(i), TsB: model.Timestamp(i + 2)},
			{Trace: model.TraceID(base + 1), TsA: model.Timestamp(i + 1), TsB: model.Timestamp(i + 3)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.AppendSeq(model.TraceID(base), []model.TraceEvent{{Activity: 1, TS: model.Timestamp(base)}}); err != nil {
		t.Fatal(err)
	}
	if err := tb.MergeCounts(model.ActivityID(base), []CountEntry{{Other: 2, SumDuration: 7, Completions: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := bw.CommitBatch(); err != nil {
		t.Fatal(err)
	}
}

// sameTables asserts both stores answer the typed read API identically.
func sameTables(t *testing.T, want, got *Tables) {
	t.Helper()
	ctx := context.Background()
	wp, _ := want.Periods(ctx)
	gp, _ := got.Periods(ctx)
	if !reflect.DeepEqual(wp, gp) {
		t.Fatalf("periods differ: %v vs %v", wp, gp)
	}
	partitions := append([]string{""}, wp...)
	for _, p := range partitions {
		err := want.ScanIndex(ctx, p, func(pair model.PairKey, entries []IndexEntry) error {
			other, err := scanIndexRow(got, p, pair)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(entries, other) {
				return fmt.Errorf("pair %v period %q: %v vs %v", pair, p, entries, other)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := want.ScanSeq(ctx, func(id model.TraceID, evs []model.TraceEvent) error {
		other, ok, err := got.GetSeq(ctx, id)
		if err != nil || !ok || !reflect.DeepEqual(evs, other) {
			return fmt.Errorf("seq %d: %v vs %v (ok=%v err=%v)", id, evs, other, ok, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyReplicatedMirrorsPrimary(t *testing.T) {
	prim, pstore := openPrimary(t, t.TempDir())
	defer pstore.Close()
	ingestBatch(t, prim, "", 10)
	ingestBatch(t, prim, "2024-01", 20)
	ingestBatch(t, prim, "2024-02", 30)
	if err := prim.DropPeriod("2024-01"); err != nil {
		t.Fatal(err)
	}

	foll, fstore := openPrimary(t, t.TempDir())
	defer fstore.Close()
	for i, g := range parseGroups(t, shipAll(t, pstore)) {
		if err := foll.ApplyReplicated(g, []byte(strconv.Itoa(i+1))); err != nil {
			t.Fatalf("group %d: %v", i, err)
		}
	}
	sameTables(t, prim, foll)

	cur, ok, err := foll.ReplicaCursor()
	if err != nil || !ok {
		t.Fatalf("cursor: %q %v %v", cur, ok, err)
	}
}

func TestApplyReplicatedSegmentSwitch(t *testing.T) {
	prim, pstore := openPrimary(t, t.TempDir())
	defer pstore.Close()
	ingestBatch(t, prim, "", 10)
	ingestBatch(t, prim, "2024-01", 20)
	if err := prim.FreezePostings(); err != nil {
		t.Fatal(err)
	}
	ingestBatch(t, prim, "2024-01", 40) // a memtable tail on top of the segment

	foll, fstore := openPrimary(t, t.TempDir())
	defer fstore.Close()
	groups := parseGroups(t, shipAll(t, pstore))
	for i, g := range groups {
		// Stage any segment the group installs, like the follower loop does.
		for _, r := range g {
			if r.Table == tableMeta && r.Key == metaSegmentKey && r.Op == kvstore.OpPut {
				name := string(r.Value)
				size, err := prim.SegmentFileSize(name)
				if err != nil {
					t.Fatal(err)
				}
				buf := make([]byte, size)
				if _, err := prim.ReadSegmentAt(name, 0, buf); err != nil {
					t.Fatal(err)
				}
				if err := foll.StageSegment(name, bytes.NewReader(buf)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := foll.ApplyReplicated(g, []byte(strconv.Itoa(i+1))); err != nil {
			t.Fatalf("group %d: %v", i, err)
		}
	}
	if prim.CurrentSegmentName() == "" || prim.CurrentSegmentName() != foll.CurrentSegmentName() {
		t.Fatalf("segment reference: primary %q follower %q", prim.CurrentSegmentName(), foll.CurrentSegmentName())
	}
	sameTables(t, prim, foll)

	// The follower survives a restart: the segment reference reloads from
	// its own store.
	if err := foll.Close(); err != nil {
		t.Fatal(err)
	}
	fstore.Close()
}

func TestApplyReplicatedMissingSegmentLeavesStoreUntouched(t *testing.T) {
	foll, fstore := openPrimary(t, t.TempDir())
	defer fstore.Close()
	if err := foll.ApplyReplicated([]kvstore.Record{
		{Op: kvstore.OpPut, Table: "tab", Key: "x", Value: []byte("1")},
		{Op: kvstore.OpPut, Table: tableMeta, Key: metaSegmentKey, Value: []byte(segName(1))},
	}, []byte("1")); err == nil {
		t.Fatal("expected an error for a segment that was never staged")
	}
	if _, ok, _ := fstore.Get("tab", "x"); ok {
		t.Fatal("failed group leaked a record")
	}
	if _, ok, _ := foll.ReplicaCursor(); ok {
		t.Fatal("failed group advanced the cursor")
	}
}

func TestApplyReplicatedRejectsBatchMarkers(t *testing.T) {
	foll, fstore := openPrimary(t, t.TempDir())
	defer fstore.Close()
	err := foll.ApplyReplicated([]kvstore.Record{{Op: kvstore.OpBatchBegin}}, []byte("1"))
	if !errors.Is(err, ErrBadReplicaGroup) {
		t.Fatalf("got %v", err)
	}
}

func TestApplyReplicatedCrashMidApplyIsIdempotent(t *testing.T) {
	prim, pstore := openPrimary(t, t.TempDir())
	defer pstore.Close()
	for i := 0; i < 4; i++ {
		ingestBatch(t, prim, "", 10*(i+1))
	}
	groups := parseGroups(t, shipAll(t, pstore))

	// Measure the follower's write volume once, then replay with a crash at
	// several byte offsets spread across the apply sequence.
	probe := kvstore.NewFaultFS(nil)
	dir := t.TempDir()
	{
		store, err := kvstore.OpenDiskWith(dir, kvstore.DiskOptions{FS: probe})
		if err != nil {
			t.Fatal(err)
		}
		tb, err := OpenTables(store, Options{SegmentDir: filepath.Join(dir, "segments"), FS: probe})
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range groups {
			if err := tb.ApplyReplicated(g, []byte(strconv.Itoa(i+1))); err != nil {
				t.Fatal(err)
			}
		}
		store.Close()
	}
	total := probe.BytesWritten()
	if total == 0 {
		t.Fatal("probe run wrote nothing")
	}

	for _, frac := range []int64{5, 37, 50, 73, 90} {
		crashAt := total * frac / 100
		t.Run(fmt.Sprintf("crash@%d", crashAt), func(t *testing.T) {
			dir := t.TempDir()
			ffs := kvstore.NewFaultFS(nil)
			store, err := kvstore.OpenDiskWith(dir, kvstore.DiskOptions{FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			tb, err := OpenTables(store, Options{SegmentDir: filepath.Join(dir, "segments"), FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			ffs.CrashAfterBytes(crashAt)
			applied := 0
			for i, g := range groups {
				if err := tb.ApplyReplicated(g, []byte(strconv.Itoa(i+1))); err != nil {
					break
				}
				applied = i + 1
			}
			store.Close()

			// "Reboot" the follower on the surviving bytes.
			store2, err := kvstore.OpenDisk(dir)
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			defer store2.Close()
			tb2, err := OpenTables(store2, Options{SegmentDir: filepath.Join(dir, "segments")})
			if err != nil {
				t.Fatal(err)
			}
			defer tb2.Close()

			// The durable cursor must agree with the durable data: resume
			// from it and the follower converges on the primary.
			resume := 0
			if cur, ok, err := tb2.ReplicaCursor(); err != nil {
				t.Fatal(err)
			} else if ok {
				resume, err = strconv.Atoi(string(cur))
				if err != nil {
					t.Fatalf("bad cursor %q", cur)
				}
			}
			if resume > applied {
				t.Fatalf("cursor %d ahead of acknowledged groups %d", resume, applied)
			}
			for i := resume; i < len(groups); i++ {
				if err := tb2.ApplyReplicated(groups[i], []byte(strconv.Itoa(i+1))); err != nil {
					t.Fatalf("resume group %d: %v", i, err)
				}
			}
			sameTables(t, prim, tb2)
		})
	}
}

func TestDropAllForResyncFollowedBySnapshotChunks(t *testing.T) {
	prim, pstore := openPrimary(t, t.TempDir())
	defer pstore.Close()
	ingestBatch(t, prim, "", 10)
	ingestBatch(t, prim, "2024-01", 20)
	if err := pstore.Compact(); err != nil {
		t.Fatal(err)
	}
	ingestBatch(t, prim, "2024-02", 30) // WAL tail past the snapshot

	// A follower that had diverged (different old content).
	foll, fstore := openPrimary(t, t.TempDir())
	defer fstore.Close()
	ingestBatch(t, foll, "stale", 99)

	st, err := pstore.ReplState()
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotSize == 0 {
		t.Fatal("expected a snapshot after compaction")
	}
	if err := foll.DropAllForResync([]byte("snap:0")); err != nil {
		t.Fatal(err)
	}
	// Ship the snapshot region and apply it in small chunks of whole records.
	snap := make([]byte, st.SnapshotSize)
	if _, err := pstore.ReadSnapshotAt(st.Epoch, 0, snap); err != nil {
		t.Fatal(err)
	}
	off, chunkStart := 0, 0
	var chunk []kvstore.Record
	flush := func() {
		if len(chunk) == 0 {
			return
		}
		if err := foll.ApplyReplicated(chunk, []byte("snap:"+strconv.Itoa(off))); err != nil {
			t.Fatalf("snapshot chunk at %d: %v", chunkStart, err)
		}
		chunk, chunkStart = nil, off
	}
	for off < len(snap) {
		rec, next, err := kvstore.ParseRecord(snap, off)
		if err != nil {
			t.Fatalf("snapshot record at %d: %v", off, err)
		}
		rec.Value = append([]byte(nil), rec.Value...)
		chunk = append(chunk, rec)
		off = next
		if len(chunk) >= 7 {
			flush()
		}
	}
	flush()
	// Then the WAL tail.
	for i, g := range parseGroups(t, shipAll(t, pstore)) {
		if err := foll.ApplyReplicated(g, []byte("wal:"+strconv.Itoa(i+1))); err != nil {
			t.Fatalf("tail group %d: %v", i, err)
		}
	}
	sameTables(t, prim, foll)
	if ps, _ := foll.Periods(context.Background()); len(ps) != 2 {
		t.Fatalf("stale periods survived the resync: %v", ps)
	}
}
