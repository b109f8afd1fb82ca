package ingest

import (
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"seqlog/internal/kvstore"
	"seqlog/internal/model"
	"seqlog/internal/netshard"
	"seqlog/internal/shard"
	"seqlog/internal/storage"
)

// The netshard variant of the sharded crash sweep: the pipeline's flushes
// travel over the wire to shard SERVERS whose stores sit on a fault-injected
// filesystem. The durability contract is identical to the local case — every
// acknowledged flush is fsynced on every shard server it touched, and each
// server individually recovers to a whole-flush prefix — because a remote
// commit group acks only after the server's crash-atomic batch commits.

// runNetshardStreamTorture mirrors runShardedStreamTorture with the stores
// behind netshard servers. Setup errors return (0, nil) like the local
// version: the sweep counts an attempt that never started as zero acks.
func runNetshardStreamTorture(t *testing.T, ffs *kvstore.FaultFS, root string, chunks [][]model.Event, dump bool) (acked int, states [][]string) {
	t.Helper()
	const nshards = 2
	backends := make([]storage.Backend, nshards)
	disks := make([]*kvstore.DiskStore, nshards)
	for i := range backends {
		ds, err := kvstore.OpenDiskWith(filepath.Join(root, fmt.Sprintf("s%d", i)), kvstore.DiskOptions{FS: ffs})
		if err != nil {
			return 0, nil
		}
		defer ds.Close()
		ds.CompactAt = 0
		tab := storage.NewTables(ds)
		srv := netshard.NewServer(tab, ds, netshard.ServerOptions{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		defer srv.Close()
		cl, err := netshard.Dial(ln.Addr().String(), netshard.Options{Shard: i})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		backends[i], disks[i] = cl, ds
	}
	st, err := shard.NewFromBackends(backends, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(st, Options{
		Policy:        model.STNM,
		Workers:       2,
		FlushEvents:   1 << 20, // only explicit flushes: cycle == chunk
		FlushInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if dump {
		states = make([][]string, nshards)
		for i := range states {
			states[i] = []string{dumpTables(t, storage.NewTables(disks[i]), "")}
		}
	}
	for _, c := range chunks {
		if err := p.Append(c); err != nil {
			return acked, states
		}
		if err := p.Flush(); err != nil {
			return acked, states
		}
		acked++
		if dump {
			for i := range states {
				states[i] = append(states[i], dumpTables(t, storage.NewTables(disks[i]), ""))
			}
		}
	}
	return acked, states
}

// TestNetshardStreamCrashAckedDurable sweeps a server-side power cut across
// the write streams of a pipeline committing through two netshard servers.
// Sparser than the local sweep (the wire adds per-point cost) but the same
// contract: strict recovery succeeds and every server recovers to an
// acked-covering whole-flush prefix.
func TestNetshardStreamCrashAckedDurable(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is slow; run without -short")
	}
	chunks := crashChunks()
	root := t.TempDir()

	probe := kvstore.NewFaultFS(nil)
	acked, states := runNetshardStreamTorture(t, probe, filepath.Join(root, "probe"), chunks, true)
	if acked != len(chunks) {
		t.Fatalf("clean run acked %d of %d flushes", acked, len(chunks))
	}
	total := probe.BytesWritten()
	if total == 0 {
		t.Fatal("probe run wrote nothing")
	}

	stride := total / 32
	if stride < 1 {
		stride = 1
	}
	for b := int64(0); b < total; b += stride {
		testNetshardCrashAt(t, root, chunks, states, b)
	}
	testNetshardCrashAt(t, root, chunks, states, total-1)
}

func testNetshardCrashAt(t *testing.T, root string, chunks [][]model.Event, states [][]string, b int64) {
	t.Helper()
	ffs := kvstore.NewFaultFS(nil)
	ffs.CrashAfterBytes(b)
	dir := filepath.Join(root, fmt.Sprintf("b%06d", b))
	acked, _ := runNetshardStreamTorture(t, ffs, dir, chunks, false)
	if !ffs.Crashed() {
		t.Fatalf("byte budget %d never triggered", b)
	}
	for i := range states {
		ds, err := kvstore.OpenDisk(filepath.Join(dir, fmt.Sprintf("s%d", i)))
		if err != nil {
			t.Fatalf("crash at byte %d: shard server %d strict recovery failed: %v", b, i, err)
		}
		got := dumpTables(t, storage.NewTables(ds), "")
		ds.Close()
		// At least the acked prefix (the durability contract); at most one
		// further flush that reached the disk without its ack.
		match := false
		for k := acked; k <= acked+1 && k < len(states[i]); k++ {
			if states[i][k] == got {
				match = true
				break
			}
		}
		if !match {
			t.Fatalf("crash at byte %d (acked %d): shard server %d did not recover to an acked-covering whole-flush prefix\ngot:\n%s",
				b, acked, i, got)
		}
	}
}
