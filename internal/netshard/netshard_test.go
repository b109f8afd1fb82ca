package netshard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"syscall"
	"testing"
	"time"

	"seqlog/internal/kvstore"
	"seqlog/internal/model"
	"seqlog/internal/storage"
)

// startServer serves tab/store on a loopback listener and returns a dialed
// client. Cleanup closes client then server.
func startServer(t *testing.T, tab *storage.Tables, store kvstore.Store, so ServerOptions) (*Client, *Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(tab, store, so)
	go srv.Serve(ln)
	cl, err := Dial(ln.Addr().String(), Options{})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		srv.Close()
	})
	return cl, srv
}

func memBackends(t *testing.T) (*Client, *storage.Tables) {
	t.Helper()
	store := kvstore.NewMemStore()
	tab := storage.NewTables(store)
	cl, _ := startServer(t, tab, store, ServerOptions{})
	return cl, tab
}

// TestNetShardRoundTrip drives every table's read and write surface through
// the wire and compares against direct local access — same rows in, same
// rows out, byte-for-byte via reflect.DeepEqual on the decoded forms.
func TestNetShardRoundTrip(t *testing.T) {
	cl, tab := memBackends(t)
	ctx := context.Background()

	// Seq table.
	events := []model.TraceEvent{{Activity: 1, TS: 100}, {Activity: 2, TS: 250}}
	commit(t, cl, "", &storage.Delta{Seqs: map[model.TraceID][]model.TraceEvent{7: events, 9: events[:1]}})
	got, ok, err := cl.GetSeq(ctx, 7)
	if err != nil || !ok || !reflect.DeepEqual(got, events) {
		t.Fatalf("GetSeq = %v, %v, %v; want %v", got, ok, err, events)
	}
	if _, ok, _ := cl.GetSeq(ctx, 999); ok {
		t.Fatal("GetSeq(999) found a row")
	}
	n, err := cl.NumTraces(ctx)
	if err != nil || n != 2 {
		t.Fatalf("NumTraces = %d, %v", n, err)
	}
	seen := map[model.TraceID]int{}
	if err := cl.ScanSeq(ctx, func(id model.TraceID, evs []model.TraceEvent) error {
		seen[id] = len(evs)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seen, map[model.TraceID]int{7: 2, 9: 1}) {
		t.Fatalf("ScanSeq saw %v", seen)
	}
	if err := cl.DeleteSeq(9); err != nil {
		t.Fatal(err)
	}
	if n, _ = cl.NumTraces(ctx); n != 1 {
		t.Fatalf("NumTraces after delete = %d", n)
	}

	// Index table.
	pair := model.NewPairKey(1, 2)
	entries := []storage.IndexEntry{{Trace: 3, TsA: 50, TsB: 60}, {Trace: 7, TsA: 100, TsB: 250}}
	commitEntries(t, cl, "p1", pair, entries...)
	commitEntries(t, cl, "p2", pair, entries[:1]...)
	// Row content: every partition scans identically through the wire.
	for _, period := range []string{"", "p1", "p2"} {
		got, want := scanPartition(t, cl, period), scanPartition(t, tab, period)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ScanIndex(%q) = %v, want %v", period, got, want)
		}
	}
	if p1 := scanPartition(t, cl, "p1"); len(p1) != 1 || !reflect.DeepEqual(p1[pair], entries) {
		t.Fatalf("ScanIndex(p1) = %v, want one row %v", p1, entries)
	}
	// The join's read: same sorted runs, in the same order, as the local
	// store hands out.
	p, err := cl.GetPostings(ctx, pair)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := tab.GetPostings(ctx, pair)
	if err != nil {
		t.Fatal(err)
	}
	if p.Total() != 3 || !reflect.DeepEqual(p, lp) {
		t.Fatalf("GetPostings = %v, want %v", p, lp)
	}
	if n, err := cl.NumIndexedPairs(ctx, "p1"); err != nil || n != 1 {
		t.Fatalf("NumIndexedPairs = %d, %v", n, err)
	}
	periods, err := cl.Periods(ctx)
	if err != nil || !reflect.DeepEqual(periods, []string{"p1", "p2"}) {
		t.Fatalf("Periods = %v, %v", periods, err)
	}
	if err := cl.DropPeriod("p2"); err != nil {
		t.Fatal(err)
	}
	if periods, _ = cl.Periods(ctx); !reflect.DeepEqual(periods, []string{"p1"}) {
		t.Fatalf("Periods after drop = %v", periods)
	}

	// Count table: a commit sums each pair's entries into its leading
	// activity's row.
	commitEntries(t, cl, "", model.NewPairKey(4, 5), storage.IndexEntry{Trace: 1, TsA: 0, TsB: 150})
	commit(t, cl, "", &storage.Delta{Entries: map[model.PairKey][]storage.IndexEntry{
		model.NewPairKey(4, 5): {{Trace: 2, TsA: 0, TsB: 10}},
		model.NewPairKey(4, 6): {{Trace: 1, TsA: 0, TsB: 5}},
	}})
	counts, err := cl.GetCounts(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []storage.CountEntry{{Other: 5, SumDuration: 160, Completions: 2}, {Other: 6, SumDuration: 5, Completions: 1}}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("GetCounts = %v, want %v", counts, want)
	}
	if local, _ := tab.GetCounts(ctx, 4); !reflect.DeepEqual(local, want) {
		t.Fatalf("server-side GetCounts = %v, want %v", local, want)
	}
	e, ok, err := cl.GetPairCount(ctx, 4, 5)
	if err != nil || !ok || e.SumDuration != 160 || e.Completions != 2 {
		t.Fatalf("GetPairCount = %v, %v, %v", e, ok, err)
	}
	// A predecessor read is a pair read: 4 precedes 6.
	if e, ok, err := cl.GetPairCount(ctx, 4, 6); err != nil || !ok || e != want[1] {
		t.Fatalf("GetPairCount(4,6) = %v, %v, %v", e, ok, err)
	}
	if _, ok, _ := cl.GetPairCount(ctx, 5, 6); ok {
		t.Fatal("GetPairCount(5,6) found")
	}

	// Last completion: the server derives it from the pair's postings and
	// the residual a dropped period leaves, and ships one scalar.
	other := model.NewPairKey(2, 1)
	if ts, err := cl.GetLastCompletion(ctx, other); ts != 0 || err != nil {
		t.Fatalf("GetLastCompletion before any append = %d, %v", ts, err)
	}
	for _, ts := range []model.Timestamp{250, 60, -3} {
		commitEntries(t, cl, "", other, storage.IndexEntry{Trace: 1, TsA: ts - 1, TsB: ts})
	}
	if ts, err := cl.GetLastCompletion(ctx, other); ts != 250 || err != nil {
		t.Fatalf("GetLastCompletion = %d, %v; want 250", ts, err)
	}
	commitEntries(t, cl, "p3", pair, storage.IndexEntry{Trace: 7, TsA: 300, TsB: 900})
	if err := cl.DropPeriod("p3"); err != nil {
		t.Fatal(err)
	}
	if ts, err := cl.GetLastCompletion(ctx, pair); ts != 900 || err != nil {
		t.Fatalf("GetLastCompletion after dropping its latest period = %d, %v; want 900", ts, err)
	}

	// Meta table.
	commit(t, cl, "", &storage.Delta{Meta: map[string][]byte{"policy": []byte("STNM")}})
	v, ok, err := cl.GetMeta("policy")
	if err != nil || !ok || string(v) != "STNM" {
		t.Fatalf("GetMeta = %q, %v, %v", v, ok, err)
	}
	if _, ok, _ = cl.GetMeta("absent"); ok {
		t.Fatal("GetMeta(absent) found")
	}

	// Segments are not configured on this server: the typed sentinel must
	// survive the wire.
	if err := cl.FreezePostings(); !errors.Is(err, storage.ErrSegmentsDisabled) {
		t.Fatalf("FreezePostings = %v, want ErrSegmentsDisabled", err)
	}
	// And the message must be the server's verbatim (the differential
	// oracle compares error strings byte-for-byte).
	if err := cl.FreezePostings(); err.Error() != storage.ErrSegmentsDisabled.Error() {
		t.Fatalf("remote error string %q != local %q", err.Error(), storage.ErrSegmentsDisabled.Error())
	}

	if err := cl.Sync(); err != nil {
		t.Fatal(err)
	}
	if cl.NumShards() != 1 {
		t.Fatal("NumShards != 1")
	}
	// A MemStore-backed server commits groups like any other; its handle
	// is already durable.
	ws, err := cl.Commit("", &storage.Delta{Seqs: map[model.TraceID][]model.TraceEvent{42: events}})
	if err != nil || len(ws) != 1 || ws[0] == nil || ws[0].Wait() != nil {
		t.Fatalf("Commit = %v, %v", ws, err)
	}
	if got, ok, _ := tab.GetSeq(ctx, 42); !ok || !reflect.DeepEqual(got, events) {
		t.Fatalf("committed group not applied: %v, %v", got, ok)
	}
	if ws, err := cl.Commit("", storage.NewDelta()); err != nil || len(ws) != 1 || ws[0] != nil {
		t.Fatalf("empty Commit = %v, %v; want one nil handle", ws, err)
	}
}

// commit ships d through the client's Commit.
func commit(t *testing.T, cl *Client, period string, d *storage.Delta) {
	t.Helper()
	if _, err := cl.Commit(period, d); err != nil {
		t.Fatal(err)
	}
}

// commitEntries commits one pair's entries into period.
func commitEntries(t *testing.T, cl *Client, period string, pair model.PairKey, es ...storage.IndexEntry) {
	t.Helper()
	commit(t, cl, period, &storage.Delta{Entries: map[model.PairKey][]storage.IndexEntry{pair: es}})
}

// scanPartition collects one partition's rows through ScanIndex.
func scanPartition(t *testing.T, b storage.Backend, period string) map[model.PairKey][]storage.IndexEntry {
	t.Helper()
	out := make(map[model.PairKey][]storage.IndexEntry)
	err := b.ScanIndex(context.Background(), period, func(k model.PairKey, es []storage.IndexEntry) error {
		out[k] = append(out[k], es...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestNetShardBatchDurable ships a commit group to a disk-backed server and
// proves the acked group survives reopening the store.
func TestNetShardBatchDurable(t *testing.T) {
	dir := t.TempDir()
	store, err := kvstore.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	tab := storage.NewTables(store)
	cl, srv := startServer(t, tab, store, ServerOptions{})

	events := []model.TraceEvent{{Activity: 1, TS: 10}}
	commit(t, cl, "p", &storage.Delta{
		Seqs:    map[model.TraceID][]model.TraceEvent{1: events},
		Entries: map[model.PairKey][]storage.IndexEntry{model.NewPairKey(1, 2): {{Trace: 1, TsA: 10, TsB: 20}}},
		Meta:    map[string][]byte{"alphabet": []byte("a\x00b")},
	})
	if n, _ := tab.NumTraces(context.Background()); n != 1 {
		t.Fatalf("committed group not applied: %d traces", n)
	}

	// Reopen: the acked group must be on disk.
	cl.Close()
	srv.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store2, err := kvstore.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	tab2 := storage.NewTables(store2)
	got, ok, err := tab2.GetSeq(context.Background(), 1)
	if err != nil || !ok || !reflect.DeepEqual(got, events) {
		t.Fatalf("after reopen GetSeq = %v, %v, %v", got, ok, err)
	}
	if v, ok, _ := tab2.GetMeta("alphabet"); !ok || string(v) != "a\x00b" {
		t.Fatalf("after reopen GetMeta = %q, %v", v, ok)
	}
}

// TestNetShardScanEarlyStop verifies the scan early-stop contract: the
// callback's error comes back verbatim and the client survives (fresh
// connection) for the next RPC.
func TestNetShardScanEarlyStop(t *testing.T) {
	cl, _ := memBackends(t)
	ctx := context.Background()
	d := storage.NewDelta()
	for i := 0; i < 100; i++ {
		d.Seqs[model.TraceID(i)] = []model.TraceEvent{{Activity: 1, TS: 1}}
	}
	commit(t, cl, "", d)
	stop := errors.New("stop here")
	n := 0
	err := cl.ScanSeq(ctx, func(model.TraceID, []model.TraceEvent) error {
		n++
		if n == 3 {
			return stop
		}
		return nil
	})
	if err != stop {
		t.Fatalf("ScanSeq early-stop error = %v, want %v", err, stop)
	}
	if got, _ := cl.NumTraces(ctx); got != 100 {
		t.Fatalf("client unusable after early stop: NumTraces = %d", got)
	}
}

// TestNetShardCancelBounded proves cancellation trips an in-flight RPC
// within a bounded wall-clock, not at the server's leisure: the server is
// made unresponsive by simply never answering (a connection to a listener
// that accepts and then sits silent).
func TestNetShardCancelBounded(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			// Answer the hello, then go silent.
			go func(c net.Conn) {
				defer c.Close()
				var h [8]byte
				c.Read(h[:])
				writeHello(c)
				<-done
			}(c)
		}
	}()
	cl, err := Dial(ln.Addr().String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = cl.NumTraces(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancel took %v", d)
	}
}

// TestNetShardTypedTransportError asserts transport failures surface as
// *OpError with the op and address filled in.
func TestNetShardTypedTransportError(t *testing.T) {
	cl, _ := memBackends(t)
	// Grab the server address, then close everything server-side.
	if _, err := cl.NumTraces(context.Background()); err != nil {
		t.Fatal(err)
	}
	cl2, err := Dial(cl.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	cl.Close()
	if _, err := cl.NumTraces(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed client err = %v", err)
	}
}

// TestNetShardCancelAfterSuccessKeepsPoolClean is the regression test for
// the cancel-watcher race: a context cancelled right after a successful
// exchange must never leave a past deadline on the connection that went back
// to the pool. One pooled connection, so every next RPC reuses the one the
// previous call returned.
func TestNetShardCancelAfterSuccessKeepsPoolClean(t *testing.T) {
	store := kvstore.NewMemStore()
	tab := storage.NewTables(store)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(tab, store, ServerOptions{})
	go srv.Serve(ln)
	defer srv.Close()
	cl, err := Dial(ln.Addr().String(), Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 2000; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		_, err := cl.NumTraces(ctx)
		cancel()
		if err != nil {
			t.Fatalf("rpc %d under a live context: %v", i, err)
		}
		if _, err := cl.NumTraces(context.Background()); err != nil {
			t.Fatalf("rpc after cancel %d: %v", i, err)
		}
	}
}

// TestNetShardV1HelloRefused: a peer of an older protocol version (v1–v5)
// must fail the hello with ErrVersion on both sides — never reach dispatch,
// where its opcodes would name different operations.
func TestNetShardV1HelloRefused(t *testing.T) {
	for v := byte(1); v < protoVersion; v++ {
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) { helloRefused(t, v) })
	}
}

func helloRefused(t *testing.T, version byte) {
	hello := []byte{'S', 'Q', 'S', 'H', version, 0, 0, 0}
	if err := readHello(bytes.NewReader(hello)); !errors.Is(err, ErrVersion) {
		t.Fatalf("readHello(v%d) = %v, want ErrVersion", version, err)
	}

	cl, _ := memBackends(t)
	raw, err := net.Dial("tcp", cl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write(hello); err != nil {
		t.Fatal(err)
	}
	// The server answers with its own hello so the old peer can name the
	// mismatch, then hangs up without reading a single frame.
	var h [8]byte
	if _, err := io.ReadFull(raw, h[:]); err != nil {
		t.Fatalf("no hello back: %v", err)
	}
	if h[4] != protoVersion {
		t.Fatalf("server hello version = %d, want %d", h[4], protoVersion)
	}
	raw.Write(mustFrame(t, []byte{opPing}))
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	// No frame may come back. The server can hang up while the ping is
	// still unread, in which case the kernel resets the connection instead
	// of closing it: both mean "not answered".
	if _, err := readFrame(raw, nil, DefaultMaxFrame); !errors.Is(err, io.EOF) && !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("old peer's frame answered: %v, want EOF or connection reset", err)
	}
}

// TestOpcodeTable pins the protocol-v6 numbering: the opcodes are the wire
// format, so a renumbering must come with a protoVersion bump.
func TestOpcodeTable(t *testing.T) {
	want := []string{
		1: "ping", "status", "get_meta", "get_seq", "delete_seq", "scan_seq",
		"num_traces", "scan_index", "num_indexed_pairs", "drop_period",
		"periods", "get_postings", "freeze", "get_counts", "get_pair_count",
		"get_last_completion", "sync", "commit_chunk", "commit",
	}
	if protoVersion != 6 || opMax != 20 || !reflect.DeepEqual(opNames[:], want) {
		t.Fatalf("protocol v%d opcode table = %q, want v6 %q", protoVersion, opNames, want)
	}
}
