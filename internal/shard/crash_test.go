package shard

import (
	"context"

	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"seqlog/internal/index"
	"seqlog/internal/ingest"
	"seqlog/internal/kvstore"
	"seqlog/internal/model"
	"seqlog/internal/pairs"
	"seqlog/internal/storage"
)

// Fault isolation for the sharded backend: each shard keeps its own WAL and
// commits flush groups independently, so a power cut on ONE shard's disk
// must (a) recover that shard to a whole number of flushes and (b) leave
// every other shard's flushed data untouched. The sweep kills the victim
// shard's filesystem at a stride of byte offsets across the whole write
// stream and checks both properties at each offset.

const (
	crashShards = 4
	crashVictim = 1 // shard whose filesystem gets the fault injection
)

// dumpBackend renders the semantic content of a backend (a single shard or a
// whole sharded group) into a canonical string, mirroring the ingest crash
// suite's fingerprint: Seq rows verbatim, index entries sorted per pair,
// watermarks and counts per indexed activity.
func dumpBackend(t *testing.T, tb storage.Backend) string {
	t.Helper()
	var lines []string
	err := tb.ScanSeq(context.Background(), func(id model.TraceID, evs []model.TraceEvent) error {
		lines = append(lines, fmt.Sprintf("seq %d %v", id, evs))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	acts := map[model.ActivityID]bool{}
	err = tb.ScanIndex(context.Background(), "", func(k model.PairKey, es []storage.IndexEntry) error {
		cp := append([]storage.IndexEntry(nil), es...)
		sort.Slice(cp, func(i, j int) bool {
			if cp[i].Trace != cp[j].Trace {
				return cp[i].Trace < cp[j].Trace
			}
			if cp[i].TsA != cp[j].TsA {
				return cp[i].TsA < cp[j].TsA
			}
			return cp[i].TsB < cp[j].TsB
		})
		lines = append(lines, fmt.Sprintf("idx %v %v", k, cp))
		lc, err := tb.GetLastCompletion(context.Background(), k)
		if err != nil {
			return err
		}
		lines = append(lines, fmt.Sprintf("lc %v %d", k, lc))
		acts[k.First()] = true
		acts[k.Second()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for a := range acts {
		c, err := tb.GetCounts(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("cnt %d %v", a, c))
		for x := range acts {
			e, ok, err := tb.GetPairCount(context.Background(), x, a)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("pair %d %d %v %v", x, a, ok, e))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// crashChunks is the workload as explicit flush-sized chunks over traces
// whose ids scatter across all four shards.
func crashChunks() [][]model.Event {
	rng := rand.New(rand.NewSource(271))
	var events []model.Event
	ts := int64(1)
	for len(events) < 160 {
		ts += int64(rng.Intn(3))
		events = append(events, model.Event{
			Trace:    model.TraceID(1 + rng.Intn(10)),
			Activity: model.ActivityID(rng.Intn(4)),
			TS:       model.Timestamp(ts),
		})
	}
	var chunks [][]model.Event
	for lo := 0; lo < len(events); lo += 8 {
		hi := lo + 8
		if hi > len(events) {
			hi = len(events)
		}
		chunks = append(chunks, events[lo:hi])
	}
	return chunks
}

// shardChunkStates computes the oracle: states[k][i] is the fingerprint of
// shard i after k whole chunks, via serial Builder updates on an in-memory
// sharded backend (routing is a pure function of key and shard count, so the
// disk run must land on exactly these per-shard states).
func shardChunkStates(t *testing.T, chunks [][]model.Event) [][]string {
	t.Helper()
	stores := make([]kvstore.Store, crashShards)
	for i := range stores {
		stores[i] = kvstore.NewMemStore()
	}
	backend, err := New(stores, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := index.NewBuilder(backend, index.Options{Policy: model.STNM, Method: pairs.State, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap := func() []string {
		dumps := make([]string, crashShards)
		for i := 0; i < crashShards; i++ {
			dumps[i] = dumpBackend(t, backend.Shard(i))
		}
		return dumps
	}
	states := [][]string{snap()}
	for _, c := range chunks {
		if _, err := b.Update(c); err != nil {
			t.Fatal(err)
		}
		states = append(states, snap())
	}
	return states
}

// runShardTorture streams the chunks through an ingest pipeline over a
// 4-shard disk backend whose victim shard lives on ffs, flushing after each
// chunk. Returns the number of acknowledged (per-shard group-committed)
// flushes; a crash anywhere surfaces as an error and stops the stream.
func runShardTorture(t *testing.T, ffs *kvstore.FaultFS, root string, chunks [][]model.Event) int {
	t.Helper()
	stores := make([]kvstore.Store, crashShards)
	for i := range stores {
		opts := kvstore.DiskOptions{}
		if i == crashVictim {
			opts.FS = ffs
		}
		ds, err := kvstore.OpenDiskWith(filepath.Join(root, fmt.Sprintf("shard-%d", i)), opts)
		if err != nil {
			for j := 0; j < i; j++ {
				stores[j].Close()
			}
			return 0
		}
		ds.CompactAt = 0
		stores[i] = ds
	}
	defer func() {
		for _, s := range stores {
			s.Close() // the victim may error after its crash; irrelevant here
		}
	}()
	backend, err := New(stores, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ingest.New(backend, ingest.Options{
		Policy:        model.STNM,
		Workers:       2,
		FlushEvents:   1 << 20, // only explicit flushes
		FlushInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	acked := 0
	for _, c := range chunks {
		if err := p.Append(c); err != nil {
			return acked
		}
		if err := p.Flush(); err != nil {
			return acked
		}
		acked++
	}
	return acked
}

// testShardCrashAt crashes the victim's filesystem at byte b, reopens every
// shard strictly and asserts each is at a committed-flush boundary: the
// victim at `acked` or `acked+1` flushes (the fatal group may have reached
// its WAL without the ack), the healthy shards likewise — commits fan out in
// shard order, so shards before the victim may carry the fatal flush and
// shards after it must not.
func testShardCrashAt(t *testing.T, root string, chunks [][]model.Event, states [][]string, b int64) {
	t.Helper()
	ffs := kvstore.NewFaultFS(nil)
	ffs.CrashAfterBytes(b)
	dir := filepath.Join(root, fmt.Sprintf("b%06d", b))
	acked := runShardTorture(t, ffs, dir, chunks)
	if !ffs.Crashed() {
		t.Fatalf("byte budget %d never triggered", b)
	}

	for i := 0; i < crashShards; i++ {
		ds, err := kvstore.OpenDisk(filepath.Join(dir, fmt.Sprintf("shard-%d", i)))
		if err != nil {
			t.Fatalf("crash at byte %d: shard %d strict recovery failed: %v", b, i, err)
		}
		if ds.Recovery().Degraded() {
			ds.Close()
			t.Fatalf("crash at byte %d: shard %d classified as corruption: %+v", b, i, ds.Recovery())
		}
		got := dumpBackend(t, storage.NewTables(ds))
		ds.Close()
		ok := false
		for k := acked; k <= acked+1 && k < len(states); k++ {
			if states[k][i] == got {
				ok = true
				break
			}
		}
		if !ok {
			role := "healthy shard"
			if i == crashVictim {
				role = "victim shard"
			}
			t.Fatalf("crash at byte %d (acked %d): %s %d is not at a committed-flush boundary\ngot:\n%s",
				b, acked, role, i, got)
		}
	}
}

// TestShardCrashIsolation sweeps a crash of one shard's disk across the
// whole write stream.
func TestShardCrashIsolation(t *testing.T) {
	chunks := crashChunks()
	states := shardChunkStates(t, chunks)
	root := t.TempDir()

	probe := kvstore.NewFaultFS(nil)
	if acked := runShardTorture(t, probe, filepath.Join(root, "probe"), chunks); acked != len(chunks) {
		t.Fatalf("clean run acked %d of %d flushes", acked, len(chunks))
	}
	total := probe.BytesWritten()
	if total == 0 {
		t.Fatal("probe run wrote nothing through the victim fs")
	}

	samples := int64(48)
	if testing.Short() {
		samples = 12
	}
	stride := total / samples
	if stride < 1 {
		stride = 1
	}
	for b := int64(0); b < total; b += stride {
		testShardCrashAt(t, root, chunks, states, b)
	}
	testShardCrashAt(t, root, chunks, states, total-1)
}
