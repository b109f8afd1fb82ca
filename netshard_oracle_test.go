package seqlog

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"

	"seqlog/internal/kvstore"
	"seqlog/internal/metrics"
	"seqlog/internal/netshard"
	"seqlog/internal/storage"
)

// The netshard differential oracle: an engine whose shards live in OTHER
// processes behind the wire protocol must be observably identical to the
// single-process engines — local single-store and local multi-shard — over
// the same log, byte for byte, for every query family. It reuses the exact
// battery the shard-count oracle runs (runOracleBattery), so the remote
// backend is held to the same surface, including error strings.

// netFleet is a set of in-process netshard servers over real loopback TCP —
// each server owns its own store and listener, exactly the topology a
// seqshard process fleet has, minus the process boundary.
type netFleet struct {
	addrs  []string
	srvs   []*netshard.Server
	tabs   []*storage.Tables
	stores []kvstore.Store
}

// startNetFleet starts one shard server per entry of dirs; an empty dir
// means an in-memory store (commit groups apply, nothing is durable), a
// path means a durable disk store with group commits.
func startNetFleet(t *testing.T, dirs []string) *netFleet {
	t.Helper()
	f := &netFleet{}
	for i, dir := range dirs {
		var store kvstore.Store
		if dir == "" {
			store = kvstore.NewMemStore()
		} else {
			ds, err := kvstore.OpenDisk(dir)
			if err != nil {
				t.Fatalf("shard server %d: %v", i, err)
			}
			store = ds
		}
		tab := storage.NewTables(store)
		srv := netshard.NewServer(tab, store, netshard.ServerOptions{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("shard server %d: %v", i, err)
		}
		go srv.Serve(ln)
		f.addrs = append(f.addrs, ln.Addr().String())
		f.srvs = append(f.srvs, srv)
		f.tabs = append(f.tabs, tab)
		f.stores = append(f.stores, store)
	}
	return f
}

// Stop tears the fleet down: servers, then tables, then stores.
func (f *netFleet) Stop() {
	for _, s := range f.srvs {
		s.Close()
	}
	for _, tab := range f.tabs {
		tab.Close()
	}
	for _, st := range f.stores {
		st.Close()
	}
}

// openNetEngine opens an engine over the fleet's addresses.
func openNetEngine(t *testing.T, f *netFleet) *Engine {
	t.Helper()
	eng, err := Open(Config{Policy: "STNM", ShardAddrs: f.addrs, Workers: 2})
	if err != nil {
		t.Fatalf("open netshard engine over %v: %v", f.addrs, err)
	}
	return eng
}

// TestNetShardOracle: a serial Builder-written store (baseline), local
// 1-shard, local 4-shard, a 2-server
// durable netshard fleet, and a 3-server in-memory fleet all answer the full
// query battery identically.
func TestNetShardOracle(t *testing.T) {
	for _, seed := range []int64{7, 4242} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			w := oracleLog(seed)
			engines := openOracleEngines(t, w)[:3] // serial baseline, 1-shard, 4-shard

			disk := startNetFleet(t, []string{t.TempDir(), t.TempDir()})
			defer disk.Stop()
			mem := startNetFleet(t, []string{"", "", ""})
			defer mem.Stop()
			for _, fl := range []struct {
				name string
				f    *netFleet
			}{{"net-2-disk", disk}, {"net-3-mem", mem}} {
				eng := openNetEngine(t, fl.f)
				defer eng.Close()
				oracleIngest(t, fl.name, eng, w)
				engines = append(engines, oracleEngine{fl.name, eng})
			}

			runOracleBattery(t, engines, w)
		})
	}
}

// TestNetShardStreamMatchesBatch: the streaming pipeline writing through
// remote stores (one WAL group per shard server per flush) builds the same
// index as serial batch updates (index.Builder) into a local single-store
// engine, under a total and under a partial order.
func TestNetShardStreamMatchesBatch(t *testing.T) {
	for _, partial := range []bool{false, true} {
		t.Run(fmt.Sprintf("partial=%v", partial), func(t *testing.T) {
			w := oracleLog(17)
			if partial {
				w.batches = tiedBatches(w.batches)
			}
			cfg := Config{Policy: "STNM", Workers: 2, PartialOrder: partial}
			serial := builderEngine(t, cfg, w.batches...)

			f := startNetFleet(t, []string{t.TempDir(), t.TempDir()})
			defer f.Stop()
			cfg.ShardAddrs = f.addrs
			remote, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer remote.Close()
			app, err := remote.OpenStream(StreamOptions{Block: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range w.batches {
				if err := app.Append(b); err != nil {
					t.Fatal(err)
				}
				if err := app.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if err := app.Close(); err != nil {
				t.Fatal(err)
			}

			for pi, p := range w.patterns {
				want := jrun(t, func() (any, error) { return serial.Detect(context.Background(), p, DetectOptions{}) })
				got := jrun(t, func() (any, error) { return remote.Detect(context.Background(), p, DetectOptions{}) })
				if got != want {
					t.Errorf("pattern %d: streamed netshard engine diverges from serial local\nwant %s\ngot  %s", pi, want, got)
				}
			}
			stats := jrun(t, func() (any, error) { return serial.Stats(context.Background(), w.patterns[0], StatsOptions{}) })
			if got := jrun(t, func() (any, error) { return remote.Stats(context.Background(), w.patterns[0], StatsOptions{}) }); got != stats {
				t.Errorf("stats diverge:\nwant %s\ngot  %s", stats, got)
			}
		})
	}
}

// tiedBatches coarsens the workload's timestamps so traces hold
// same-timestamp groups, and moves each batch cut past a group it would
// split: a partial-order batch may not reach back into a stored tie.
func tiedBatches(batches [][]Event) [][]Event {
	var (
		evs  []Event
		cuts []int
	)
	for _, b := range batches {
		for _, ev := range b {
			ev.Time /= 8
			evs = append(evs, ev)
		}
		cuts = append(cuts, len(evs))
	}
	var out [][]Event
	lo := 0
	for _, hi := range cuts {
		for hi < len(evs) && evs[hi].Trace == evs[hi-1].Trace && evs[hi].Time == evs[hi-1].Time {
			hi++
		}
		if hi > lo {
			out = append(out, evs[lo:hi])
			lo = hi
		}
	}
	return out
}

// TestNetShardIngestOneCommitPerShard: over a fleet a batch Ingest ships
// each shard server its rows as one commit group — no per-row write RPC and
// no separate sync — so each shard commits the batch atomically.
func TestNetShardIngestOneCommitPerShard(t *testing.T) {
	f := startNetFleet(t, []string{t.TempDir(), t.TempDir()})
	defer f.Stop()
	eng := openNetEngine(t, f)
	defer eng.Close()
	writeOps := []string{"append_seq", "append_index", "merge_counts", "put_meta", "sync", "commit"}
	rpcs := func() map[string]int64 {
		n := map[string]int64{}
		for shard := range f.addrs {
			for _, op := range writeOps {
				h := eng.Metrics().Histogram("seqlog_netshard_rpc_seconds",
					metrics.Label{Key: "shard", Value: fmt.Sprint(shard)}, metrics.Label{Key: "op", Value: op})
				n[fmt.Sprintf("%s/%d", op, shard)] = h.Snapshot().Count
			}
		}
		return n
	}
	before := rpcs()
	if _, err := eng.Ingest(shopEvents()); err != nil {
		t.Fatal(err)
	}
	after := rpcs()
	for k, n := range after {
		want := int64(0)
		if strings.HasPrefix(k, "commit/") {
			want = 1
		}
		if n-before[k] != want {
			t.Errorf("%s RPCs during one Ingest = %d, want %d (all: %v)", k, n-before[k], want, after)
		}
	}
}

// TestNetShardDurableReopen: restart every shard server over its directory
// and the engine answers exactly as before; a placement map with the wrong
// shard count is refused via the replicated pinned meta, not silently
// re-routed.
func TestNetShardDurableReopen(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	w := oracleLog(99)

	f := startNetFleet(t, dirs)
	eng := openNetEngine(t, f)
	oracleIngest(t, "net", eng, w)
	want := jrun(t, func() (any, error) { return eng.Detect(context.Background(), w.patterns[0], DetectOptions{}) })
	wantStats := jrun(t, func() (any, error) { return eng.Stats(context.Background(), w.patterns[0], StatsOptions{}) })
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	f.Stop()

	// Cold restart of the whole fleet over the same directories.
	f2 := startNetFleet(t, dirs)
	defer f2.Stop()

	// A 3-entry placement map over a 2-shard fleet must be refused: the
	// shard count is pinned in the replicated meta row.
	bogus := &netFleet{addrs: append(append([]string{}, f2.addrs...), f2.addrs[0])}
	if eng, err := Open(Config{Policy: "STNM", ShardAddrs: bogus.addrs}); err == nil {
		eng.Close()
		t.Fatal("reopen with 3 shard addresses over a 2-shard fleet succeeded")
	} else if !strings.Contains(err.Error(), "shard") {
		t.Fatalf("mismatched placement map error does not mention shards: %v", err)
	}

	reopened := openNetEngine(t, f2)
	defer reopened.Close()
	if got := jrun(t, func() (any, error) { return reopened.Detect(context.Background(), w.patterns[0], DetectOptions{}) }); got != want {
		t.Fatalf("reopened netshard engine diverges:\nbefore: %s\nafter:  %s", want, got)
	}
	if got := jrun(t, func() (any, error) { return reopened.Stats(context.Background(), w.patterns[0], StatsOptions{}) }); got != wantStats {
		t.Fatalf("reopened stats diverge:\nbefore: %s\nafter:  %s", wantStats, got)
	}
}

// TestNetShardReadReplica: the cluster quickstart's read-replica shape — a
// read-only engine opened over the SAME fleet as a writer, before anything
// was ingested. Shard servers hold all data and the decoded-postings caches,
// so the replica reads live; the one piece of engine-local state, the
// interned alphabet, is refreshed on lookup miss (Engine.pattern), so
// activities first seen AFTER the replica opened still resolve without a
// restart. Writes are rejected with ErrReadOnly.
func TestNetShardReadReplica(t *testing.T) {
	f := startNetFleet(t, []string{t.TempDir(), t.TempDir()})
	defer f.Stop()

	replica, err := Open(Config{Policy: "STNM", ShardAddrs: f.addrs, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()

	// Nothing ingested anywhere yet: unknown activities, empty answer.
	if ms, err := replica.Detect(context.Background(), []string{"alpha", "beta"}, DetectOptions{}); err != nil || len(ms) != 0 {
		t.Fatalf("pre-ingest detect = %v, %v", ms, err)
	}

	writer := openNetEngine(t, f)
	defer writer.Close()
	if _, err := writer.Ingest([]Event{
		{Trace: 1, Activity: "alpha", Time: 10},
		{Trace: 1, Activity: "beta", Time: 20},
		{Trace: 2, Activity: "alpha", Time: 30},
		{Trace: 2, Activity: "beta", Time: 40},
	}); err != nil {
		t.Fatal(err)
	}

	want, err := writer.Detect(context.Background(), []string{"alpha", "beta"}, DetectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := replica.Detect(context.Background(), []string{"alpha", "beta"}, DetectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("replica detect = %+v, writer = %+v", got, want)
	}

	// An activity first ingested after the replica resolved its pattern
	// names reaches it only as an ID inside query results: the ID→name path
	// must reload the alphabet too, not render "?".
	if _, err := writer.Ingest([]Event{
		{Trace: 3, Activity: "alpha", Time: 50},
		{Trace: 3, Activity: "beta", Time: 60},
		{Trace: 3, Activity: "gamma", Time: 70},
	}); err != nil {
		t.Fatal(err)
	}
	wantProps, err := writer.Explore(context.Background(), []string{"alpha", "beta"}, ExploreOptions{Mode: Accurate})
	if err != nil {
		t.Fatal(err)
	}
	gotProps, err := replica.Explore(context.Background(), []string{"alpha", "beta"}, ExploreOptions{Mode: Accurate})
	if err != nil {
		t.Fatal(err)
	}
	if len(wantProps) != 1 || wantProps[0].Activity != "gamma" || !reflect.DeepEqual(gotProps, wantProps) {
		t.Fatalf("replica explore = %+v, writer = %+v", gotProps, wantProps)
	}

	// A leading insert tries every activity of the alphabet, so the replica
	// must reload it even though the pattern's own names resolve: delta is
	// first ingested after the replica last looked.
	if _, err := writer.Ingest([]Event{
		{Trace: 4, Activity: "delta", Time: 80},
		{Trace: 4, Activity: "alpha", Time: 90},
		{Trace: 4, Activity: "beta", Time: 95},
	}); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ExploreMode{Accurate, Fast, Hybrid} {
		wantProps, err := writer.Explore(context.Background(), []string{"alpha", "beta"}, ExploreOptions{Mode: mode, Position: at(0), TopK: 1})
		if err != nil {
			t.Fatal(err)
		}
		gotProps, err := replica.Explore(context.Background(), []string{"alpha", "beta"}, ExploreOptions{Mode: mode, Position: at(0), TopK: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(wantProps) != 1 || wantProps[0].Activity != "delta" || !reflect.DeepEqual(gotProps, wantProps) {
			t.Fatalf("%s: replica leading insert = %+v, writer = %+v", mode, gotProps, wantProps)
		}
	}

	if _, err := replica.Ingest([]Event{{Trace: 9, Activity: "alpha", Time: 1}}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("replica ingest err = %v, want ErrReadOnly", err)
	}
}
