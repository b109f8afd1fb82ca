package index

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"seqlog/internal/kvstore"
	"seqlog/internal/model"
	"seqlog/internal/pairs"
	"seqlog/internal/shard"
	"seqlog/internal/storage"
)

// The Builder's crash contract: one Update commits each store's part of the
// batch as one crash-atomic group. A power cut anywhere inside an Update —
// between any two filesystem operations, or inside a write — leaves every
// store with all of its part of the batch in Seq, Index and Count, or none.

// crashBatches returns a first batch and a second one extending the same
// traces, so the second appends to Seq rows, Index rows and Count rows.
func crashBatches() (first, second []model.Event) {
	rng := rand.New(rand.NewSource(51))
	ts := int64(1)
	events := make([]model.Event, 120)
	for i := range events {
		ts += int64(rng.Intn(3))
		events[i] = model.Event{
			Trace:    model.TraceID(1 + rng.Intn(9)),
			Activity: model.ActivityID(rng.Intn(5)),
			TS:       model.Timestamp(ts),
		}
	}
	return events[:60], events[60:]
}

// storeRows renders every row of every table of a store.
func storeRows(t *testing.T, s kvstore.Store) string {
	t.Helper()
	tables, err := s.Tables()
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, tab := range tables {
		err := s.Scan(tab, func(k string, v []byte) error {
			lines = append(lines, fmt.Sprintf("%s/%q %x", tab, k, v))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// builderCrashRun opens n durable stores under root on ffs, applies the
// first batch with ffs as it is, then arms it and applies the second,
// followed by a Sync of every store. With dump it returns each store's rows
// before and after the second batch.
func builderCrashRun(t *testing.T, ffs *kvstore.FaultFS, root string, n int, arm func(), dump bool) (before, after []string) {
	t.Helper()
	first, second := crashBatches()
	disks := make([]*kvstore.DiskStore, n)
	stores := make([]kvstore.Store, n)
	for i := range disks {
		ds, err := kvstore.OpenDiskWith(filepath.Join(root, fmt.Sprintf("s%d", i)), kvstore.DiskOptions{FS: ffs})
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		ds.CompactAt = 0
		disks[i], stores[i] = ds, ds
	}
	var tables storage.Backend = storage.NewTables(disks[0])
	if n > 1 {
		st, err := shard.New(stores, shard.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tables = st
	}
	b, err := NewBuilder(tables, Options{Policy: model.STNM, Method: pairs.State, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap := func() []string {
		out := make([]string, n)
		for i, ds := range disks {
			out[i] = storeRows(t, ds)
		}
		return out
	}
	if _, err := b.Update(first); err != nil {
		t.Fatal(err)
	}
	for _, ds := range disks {
		if err := ds.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if dump {
		before = snap()
	}
	arm()
	if _, err := b.Update(second); err != nil {
		return before, nil
	}
	for _, ds := range disks {
		if err := ds.Sync(); err != nil {
			return before, nil
		}
	}
	if dump {
		after = snap()
	}
	return before, after
}

// TestBuilderCrashAtomicPerStore crashes one Update at every filesystem
// operation and at a stride of byte offsets of its writes, on one durable
// store and on three durable shards, and checks that each recovered store
// holds its rows from before the Update or from after it.
func TestBuilderCrashAtomicPerStore(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("stores=%d", n), func(t *testing.T) {
			root := t.TempDir()
			probe := kvstore.NewFaultFS(nil)
			var ops0, bytes0 int64
			before, after := builderCrashRun(t, probe, filepath.Join(root, "probe"), n, func() {
				ops0, bytes0 = probe.Ops(), probe.BytesWritten()
			}, true)
			if after == nil {
				t.Fatal("clean run failed")
			}
			ops, bytes := probe.Ops()-ops0, probe.BytesWritten()-bytes0
			if ops == 0 || bytes == 0 {
				t.Fatalf("the Update did %d filesystem operations writing %d bytes", ops, bytes)
			}
			byteStride := bytes / 96
			if testing.Short() {
				byteStride = bytes / 24
			}
			byteStride = max(byteStride, 1)
			check := func(label string, arm func(*kvstore.FaultFS)) {
				t.Helper()
				dir := filepath.Join(root, label)
				ffs := kvstore.NewFaultFS(nil)
				builderCrashRun(t, ffs, dir, n, func() { arm(ffs) }, false)
				if !ffs.Crashed() {
					t.Fatalf("%s: the crash never triggered", label)
				}
				for i := 0; i < n; i++ {
					ds, err := kvstore.OpenDisk(filepath.Join(dir, fmt.Sprintf("s%d", i)))
					if err != nil {
						t.Fatalf("%s: store %d: strict recovery failed: %v", label, i, err)
					}
					got := storeRows(t, ds)
					ds.Close()
					if got != before[i] && got != after[i] {
						t.Fatalf("%s: store %d recovered part of the Update\ngot:\n%s\nbefore:\n%s\nafter:\n%s",
							label, i, got, before[i], after[i])
					}
				}
			}
			for k := int64(0); k < ops; k++ {
				check(fmt.Sprintf("op%d", k), func(f *kvstore.FaultFS) { f.CrashAfterOps(k) })
			}
			for b := int64(0); b < bytes; b += byteStride {
				check(fmt.Sprintf("byte%d", b), func(f *kvstore.FaultFS) { f.CrashAfterBytes(b) })
			}
		})
	}
}
