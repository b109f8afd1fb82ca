package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"seqlog/internal/kvstore"
	"seqlog/internal/model"
)

// Crash sweep over the freeze path: simulate a crash after every written byte
// of two freezes (the fresh-segment and the merge-with-old-segment paths) and
// verify that reopening recovers cleanly — the torn segment is an
// unreferenced stray, the kvstore tier still holds every durable entry, and
// no entry is ever lost or duplicated. This is the crash contract the
// lifecycle comment promises: old state or new state, never a mix.

// crashFixtureA/B are the two ingest phases of the torture script.
func crashFixtureA() map[segKey][]IndexEntry {
	return map[segKey][]IndexEntry{
		{period: "", pair: model.NewPairKey(1, 2)}: {
			{Trace: 1, TsA: 10, TsB: 20}, {Trace: 1, TsA: 30, TsB: 35},
			{Trace: 4, TsA: 12, TsB: 13}, {Trace: 9, TsA: 50, TsB: 99},
		},
		{period: "", pair: model.NewPairKey(2, 3)}: {
			{Trace: 1, TsA: 21, TsB: 29}, {Trace: 7, TsA: 5, TsB: 6},
		},
		{period: "2026-01", pair: model.NewPairKey(1, 2)}: {
			{Trace: 11, TsA: 100, TsB: 200},
		},
	}
}

func crashFixtureB() map[segKey][]IndexEntry {
	return map[segKey][]IndexEntry{
		{period: "", pair: model.NewPairKey(1, 2)}: {
			{Trace: 2, TsA: 40, TsB: 44}, {Trace: 9, TsA: 60, TsB: 61},
		},
		{period: "", pair: model.NewPairKey(5, 6)}: {
			{Trace: 3, TsA: 7, TsB: 8},
		},
	}
}

// runFreezeScript executes ingest A → sync → freeze → ingest B → sync →
// freeze against the injected filesystem, stopping at the first error (the
// simulated crash). Returns how many script steps completed.
func runFreezeScript(fs kvstore.FS, dir string) (completed int) {
	store, err := kvstore.OpenDiskWith(filepath.Join(dir, "db"), kvstore.DiskOptions{FS: fs})
	if err != nil {
		return 0
	}
	tb, err := OpenTables(store, Options{SegmentDir: filepath.Join(dir, "segments"), FS: fs})
	if err != nil {
		return 0
	}
	appendAll := func(fix map[segKey][]IndexEntry) error {
		// Deterministic order so every sweep iteration crashes at the same
		// logical point for a given byte budget.
		for _, k := range sortedSegKeys(fix) {
			if err := tb.AppendIndex(k.period, k.pair, fix[k]); err != nil {
				return err
			}
		}
		return nil
	}
	steps := []func() error{
		func() error { return appendAll(crashFixtureA()) },
		store.Sync,
		tb.FreezePostings,
		func() error { return appendAll(crashFixtureB()) },
		store.Sync,
		tb.FreezePostings,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			break
		}
		completed++
	}
	tb.Close()
	return completed
}

func sortedSegKeys(m map[segKey][]IndexEntry) []segKey {
	keys := make([]segKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0; j-- {
			a, b := keys[j], keys[j-1]
			if a.period > b.period || (a.period == b.period && a.pair >= b.pair) {
				break
			}
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// checkCrashRecovery reopens the store with the real filesystem and verifies
// the invariant: every row holds either its phase-A content or its full A+B
// content (row replacement is crash-atomic), with phase A mandatory once step
// 2 (the first sync) completed.
func checkCrashRecovery(t *testing.T, dir string, completed int, label string) {
	t.Helper()
	store, err := kvstore.OpenDisk(filepath.Join(dir, "db"))
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	defer store.Close()
	tb, err := OpenTables(store, Options{SegmentDir: filepath.Join(dir, "segments")})
	if err != nil {
		t.Fatalf("%s: reopen tables: %v", label, err)
	}
	defer tb.Close()
	if tb.Recovery().Degraded() {
		t.Fatalf("%s: recovery degraded", label)
	}

	fixA, fixB := crashFixtureA(), crashFixtureB()
	keys := map[segKey]bool{}
	for k := range fixA {
		keys[k] = true
	}
	for k := range fixB {
		keys[k] = true
	}
	for k := range keys {
		got, err := scanIndexRowSorted(tb, k.period, k.pair)
		if err != nil {
			t.Fatalf("%s: read %v: %v", label, k, err)
		}
		wantA := append([]IndexEntry(nil), fixA[k]...)
		sortIndexEntries(wantA)
		wantAB := append(append([]IndexEntry(nil), fixA[k]...), fixB[k]...)
		sortIndexEntries(wantAB)
		okA := reflect.DeepEqual(got, wantA) || (len(got) == 0 && len(wantA) == 0)
		okAB := reflect.DeepEqual(got, wantAB)
		switch {
		case completed >= 5 && !okAB:
			// Both syncs completed: phase B is durable, only A+B is legal.
			t.Fatalf("%s: %v lost synced phase-B data: %d entries", label, k, len(got))
		case completed >= 2 && !okA && !okAB:
			// Phase A was synced: the row is A, or A+B, nothing else.
			t.Fatalf("%s: %v holds neither A nor A+B: %d entries", label, k, len(got))
		case completed < 2 && !okA && !okAB && len(got) != 0:
			t.Fatalf("%s: %v holds foreign data: %v", label, k, got)
		}
	}
	// The segment dir never accumulates strays: at most the one referenced
	// segment survives recovery.
	ents, _ := os.ReadDir(filepath.Join(dir, "segments"))
	segs := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("%s: temp segment survived recovery: %s", label, e.Name())
		}
		if _, ok := parseSegName(e.Name()); ok {
			segs++
		}
	}
	if segs > 1 {
		t.Fatalf("%s: %d segment files after recovery", label, segs)
	}
}

func TestFreezeCrashSweep(t *testing.T) {
	root := t.TempDir()
	probe := kvstore.NewFaultFS(nil)
	if n := runFreezeScript(probe, filepath.Join(root, "probe")); n != 6 {
		t.Fatalf("clean probe run stopped at step %d", n)
	}
	total := probe.BytesWritten()
	if total == 0 {
		t.Fatal("probe wrote nothing")
	}
	stride := int64(1)
	if testing.Short() {
		stride = 17
	}
	for b := int64(0); b < total; b += stride {
		ffs := kvstore.NewFaultFS(nil)
		ffs.CrashAfterBytes(b)
		dir := filepath.Join(root, fmt.Sprintf("b%06d", b))
		completed := runFreezeScript(ffs, dir)
		if !ffs.Crashed() {
			t.Fatalf("byte budget %d never triggered (total %d)", b, total)
		}
		checkCrashRecovery(t, dir, completed, fmt.Sprintf("crash at byte %d", b))
	}
}

// TestFreezeCrashAtEveryFSOp covers the non-write crash points: fsync of the
// segment file, its rename into place, the directory sync and the WAL batch
// commit of the reference switch.
func TestFreezeCrashAtEveryFSOp(t *testing.T) {
	root := t.TempDir()
	probe := kvstore.NewFaultFS(nil)
	if n := runFreezeScript(probe, filepath.Join(root, "probe")); n != 6 {
		t.Fatalf("clean probe run stopped at step %d", n)
	}
	total := probe.Ops()
	for k := int64(0); k < total; k++ {
		ffs := kvstore.NewFaultFS(nil)
		ffs.CrashAfterOps(k)
		dir := filepath.Join(root, fmt.Sprintf("o%05d", k))
		completed := runFreezeScript(ffs, dir)
		if !ffs.Crashed() {
			t.Fatalf("op budget %d never triggered (total %d)", k, total)
		}
		checkCrashRecovery(t, dir, completed, fmt.Sprintf("crash at fs op %d", k))
	}
}
