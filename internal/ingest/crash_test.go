package ingest

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"seqlog/internal/index"
	"seqlog/internal/kvstore"
	"seqlog/internal/model"
	"seqlog/internal/pairs"
	"seqlog/internal/storage"
)

// The crash sweep for the pipeline's durability claim: every flush is one
// WAL record group, so a power cut at any byte recovers the tables to the
// state after some whole number of flushes — a committed-batch prefix, never
// half a flush. The one-shot leg runs each chunk the way Engine.Ingest runs
// a batch: a fresh pipeline, Append, Flush, Close.

// crashChunks returns the workload as explicit flush-sized chunks. The test
// pins flush boundaries to chunks (huge thresholds + explicit Flush), so
// the committed-prefix states are enumerable.
func crashChunks() [][]model.Event {
	rng := rand.New(rand.NewSource(81))
	events := randomLog(rng, 3, 48, 3)
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

// chunkStates computes the oracle fingerprint after each whole chunk via
// serial Builder updates on a memory store.
func chunkStates(t *testing.T, chunks [][]model.Event) []string {
	t.Helper()
	tb := storage.NewTables(kvstore.NewMemStore())
	b, err := index.NewBuilder(tb, index.Options{Policy: model.STNM, Method: pairs.State, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	states := []string{dumpTables(t, tb, "")}
	for _, c := range chunks {
		if _, err := b.Update(c); err != nil {
			t.Fatal(err)
		}
		states = append(states, dumpTables(t, tb, ""))
	}
	return states
}

// runStreamTorture streams the chunks through a pipeline over a DiskStore
// on ffs, flushing after each chunk; with oneShot every chunk gets a fresh
// pipeline. It returns the number of acknowledged (fsynced) flushes.
func runStreamTorture(t *testing.T, ffs *kvstore.FaultFS, dir string, chunks [][]model.Event, oneShot bool) int {
	t.Helper()
	ds, err := kvstore.OpenDiskWith(dir, kvstore.DiskOptions{FS: ffs})
	if err != nil {
		return 0
	}
	defer ds.Close()
	ds.CompactAt = 0
	tb := storage.NewTables(ds)
	start := func() *Pipeline {
		p, err := New(tb, Options{
			Policy:        model.STNM,
			Workers:       2,
			FlushEvents:   1 << 20, // only explicit flushes
			FlushInterval: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := start()
	defer func() { p.Close() }()
	acked := 0
	for i, c := range chunks {
		if oneShot && i > 0 {
			if err := p.Close(); err != nil {
				return acked
			}
			p = start()
		}
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

// TestStreamCrashRecoversCommittedPrefix sweeps a crash across the write
// stream of the workload, streamed and as one-shot batches, and asserts
// recovery lands on a whole number of flushes.
func TestStreamCrashRecoversCommittedPrefix(t *testing.T) {
	chunks := crashChunks()
	states := chunkStates(t, chunks)
	for _, oneShot := range []bool{false, true} {
		t.Run(fmt.Sprintf("oneShot=%v", oneShot), func(t *testing.T) {
			sweepStreamCrash(t, chunks, states, oneShot)
		})
	}
}

func sweepStreamCrash(t *testing.T, chunks [][]model.Event, states []string, oneShot bool) {
	root := t.TempDir()
	probe := kvstore.NewFaultFS(nil)
	if acked := runStreamTorture(t, probe, filepath.Join(root, "probe"), chunks, oneShot); acked != len(chunks) {
		t.Fatalf("clean run acked %d of %d flushes", acked, len(chunks))
	}
	total := probe.BytesWritten()
	if total == 0 {
		t.Fatal("probe run wrote nothing")
	}

	// Sample the byte positions: every boundary region matters equally and
	// a full sweep is covered at the kvstore layer; here a stride plus the
	// first/last bytes keeps the tier fast while crossing every flush.
	points := int64(192)
	if testing.Short() {
		points = 48 // sparser sweep, same boundary coverage per flush
	}
	stride := total / points
	if stride < 1 {
		stride = 1
	}
	for b := int64(0); b < total; b += stride {
		testStreamCrashAt(t, root, chunks, states, b, oneShot)
	}
	testStreamCrashAt(t, root, chunks, states, total-1, oneShot)
}

func testStreamCrashAt(t *testing.T, root string, chunks [][]model.Event, states []string, b int64, oneShot bool) {
	t.Helper()
	ffs := kvstore.NewFaultFS(nil)
	ffs.CrashAfterBytes(b)
	dir := filepath.Join(root, fmt.Sprintf("b%06d", b))
	acked := runStreamTorture(t, ffs, dir, chunks, oneShot)
	if !ffs.Crashed() {
		t.Fatalf("byte budget %d never triggered", b)
	}

	ds, err := kvstore.OpenDisk(dir)
	if err != nil {
		t.Fatalf("crash at byte %d: strict recovery failed: %v", b, err)
	}
	defer ds.Close()
	if ds.Recovery().Degraded() {
		t.Fatalf("crash at byte %d: classified as corruption: %+v", b, ds.Recovery())
	}
	got := dumpTables(t, storage.NewTables(ds), "")

	// An acked flush is fsynced — at least `acked` chunks must be present.
	// One more flush may have reached the disk without its ack (crash
	// during the fsync or while reporting), so allow acked+1.
	for k := acked; k <= acked+1 && k < len(states); k++ {
		if states[k] == got {
			return
		}
	}
	t.Fatalf("crash at byte %d (acked %d): recovered tables are not a committed-flush prefix\ngot:\n%s",
		b, acked, got)
}

// TestStreamGroupCommitSyncs: on a durable store every flush is exactly one
// group commit — Syncs equals Batches, and the ack implies fsync.
func TestStreamGroupCommitSyncs(t *testing.T) {
	dir := t.TempDir()
	ds, err := kvstore.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	tb := storage.NewTables(ds)
	p, err := New(tb, Options{Policy: model.STNM, Workers: 2, FlushEvents: 1 << 20, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range crashChunks() {
		if err := p.Append(c); err != nil {
			t.Fatal(err)
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Batches == 0 || st.Syncs != st.Batches {
		t.Fatalf("group commit accounting off: %+v (want syncs == batches > 0)", st)
	}
}
