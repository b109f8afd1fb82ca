package seqlog_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"seqlog"
	"seqlog/internal/httpclient"
	"seqlog/internal/kvstore"
	"seqlog/internal/model"
	"seqlog/internal/netshard"
	"seqlog/internal/pairs"
	"seqlog/internal/replica"
	"seqlog/internal/server"
	"seqlog/internal/storage"
)

// The LastCompletion oracle: a pair's last completion is derived on read
// from its postings plus the residual row DropPeriod leaves. After every step
// of a seeded op sequence — ingest, stream append, freeze, period rotation
// and drop, prune, reopen — every pair's Stats LastCompletion must equal the
// largest TsB the pair ever had in any partition, computed from the raw log
// with pairs.ExtractReference, on every backend a store can sit on.

// lcActs are the log's activities; a name's index is its id in the reference.
var lcActs = []string{"a0", "a1", "a2", "a3", "a4", "a5"}

// lcLog is the seeded log: trace t puts the first half of its events into
// batch t%5 and the rest into the next batch, each half later in time than
// everything of the batch before, so later partitions hold the maxima and a
// drop that forgot them would show.
type lcLog struct {
	batches [][]seqlog.Event
	home    map[int64]int // trace -> its first batch
}

func newLCLog(seed int64) lcLog {
	rng := rand.New(rand.NewSource(seed))
	l := lcLog{batches: make([][]seqlog.Event, 6), home: map[int64]int{}}
	for tr := int64(1); tr <= 40; tr++ {
		k := int(tr % 5)
		l.home[tr] = k
		n := 6 + rng.Intn(10)
		for j := 0; j < n; j++ {
			b := k
			if j >= n/2 {
				b = k + 1
			}
			ts := int64(1000*b + 40*j + rng.Intn(40))
			act := lcActs[rng.Intn(len(lcActs))]
			l.batches[b] = append(l.batches[b], seqlog.Event{Trace: tr, Activity: act, Time: ts})
		}
	}
	return l
}

// lcReference holds every event ingested so far, per trace.
type lcReference map[int64][]model.TraceEvent

func (r lcReference) add(events []seqlog.Event) {
	for _, ev := range events {
		a := slices.Index(lcActs, ev.Activity)
		r[ev.Trace] = append(r[ev.Trace], model.TraceEvent{Activity: model.ActivityID(a), TS: model.Timestamp(ev.Time)})
	}
}

// last returns each pair's largest TsB over all traces, and the activities
// seen so far.
func (r lcReference) last() (map[[2]string]int64, []string) {
	last := map[[2]string]int64{}
	seen := map[string]bool{}
	for _, evs := range r {
		for _, ev := range evs {
			seen[lcActs[ev.Activity]] = true
		}
		for k, occs := range pairs.ExtractReference(evs) {
			pair := [2]string{lcActs[k.First()], lcActs[k.Second()]}
			for _, o := range occs {
				if cur, ok := last[pair]; !ok || int64(o.TsB) > cur {
					last[pair] = int64(o.TsB)
				}
			}
		}
	}
	var names []string
	for _, a := range lcActs {
		if seen[a] {
			names = append(names, a)
		}
	}
	return last, names
}

// lcFleet is two durable netshard servers with segment tiers, restartable
// over their directories.
type lcFleet struct {
	dirs   []string
	addrs  []string
	srvs   []*netshard.Server
	tabs   []*storage.Tables
	stores []kvstore.Store
}

func (f *lcFleet) start(t *testing.T) {
	t.Helper()
	f.addrs = nil
	for _, dir := range f.dirs {
		store, err := kvstore.OpenDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := storage.OpenTables(store, storage.Options{SegmentDir: filepath.Join(dir, "segments")})
		if err != nil {
			t.Fatal(err)
		}
		srv := netshard.NewServer(tab, store, netshard.ServerOptions{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		f.addrs = append(f.addrs, ln.Addr().String())
		f.srvs, f.tabs, f.stores = append(f.srvs, srv), append(f.tabs, tab), append(f.stores, store)
	}
}

func (f *lcFleet) stop() {
	for i := range f.srvs {
		f.srvs[i].Close()
		f.tabs[i].Close()
		f.stores[i].Close()
	}
	f.srvs, f.tabs, f.stores = nil, nil, nil
}

// lcEngine is one participant; reopen is nil when its state cannot outlive
// the handle (memory) or it must keep serving replication (the primary).
type lcEngine struct {
	name   string
	eng    *seqlog.Engine
	reopen func() *seqlog.Engine
}

func openLC(t *testing.T, cfg seqlog.Config) *seqlog.Engine {
	t.Helper()
	cfg.Policy = "STNM"
	eng, err := seqlog.Open(cfg)
	if err != nil {
		t.Fatalf("open %+v: %v", cfg, err)
	}
	return eng
}

// waitFollower blocks until follower has applied all the primary made
// durable.
func waitFollower(t *testing.T, primary, follower *seqlog.Engine) {
	t.Helper()
	if err := primary.Sync(); err != nil {
		t.Fatal(err)
	}
	src, _ := primary.ReplicaSource()
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		pst, err := src.State()
		if err != nil {
			t.Fatal(err)
		}
		if fst := follower.Replication(); fst.State == "tailing" && fst.Epoch == pst.Epoch && fst.Offset == pst.WALDurable {
			return
		}
	}
	t.Fatalf("follower never caught up: %+v", *follower.Replication())
}

func TestLastCompletionOracle(t *testing.T) {
	for _, seed := range []int64{3, 46} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { lastCompletionOracle(t, seed) })
	}
}

func lastCompletionOracle(t *testing.T, seed int64) {
	log := newLCLog(seed)
	ref := lcReference{}

	diskDir, shardDir := t.TempDir(), t.TempDir()
	fleet := &lcFleet{dirs: []string{t.TempDir(), t.TempDir()}}
	fleet.start(t)
	defer func() { fleet.stop() }()
	primary := openLC(t, seqlog.Config{Dir: t.TempDir()})
	srv := httptest.NewServer(server.New(primary))
	defer srv.Close()
	follower := openLC(t, seqlog.Config{Dir: t.TempDir(), ReadOnly: true})
	opts := replica.Options{Client: &httpclient.Client{Retries: 8, Sleep: func(time.Duration) {}}, PollInterval: 5 * time.Millisecond, WaitMS: 50}
	if err := follower.StartFollower(srv.URL, opts); err != nil {
		t.Fatal(err)
	}

	engines := []*lcEngine{
		{name: "memory", eng: openLC(t, seqlog.Config{})},
		{name: "disk", eng: openLC(t, seqlog.Config{Dir: diskDir}),
			reopen: func() *seqlog.Engine { return openLC(t, seqlog.Config{Dir: diskDir}) }},
		{name: "3-shard", eng: openLC(t, seqlog.Config{Dir: shardDir, Shards: 3}),
			reopen: func() *seqlog.Engine { return openLC(t, seqlog.Config{Dir: shardDir}) }},
		{name: "netshard", eng: openLC(t, seqlog.Config{ShardAddrs: fleet.addrs}),
			reopen: func() *seqlog.Engine {
				fleet.stop()
				fleet.start(t)
				return openLC(t, seqlog.Config{ShardAddrs: fleet.addrs})
			}},
		{name: "primary", eng: primary},
	}
	defer func() {
		follower.Close()
		for _, e := range engines {
			e.eng.Close()
		}
	}()

	type op = func(*lcEngine) error
	ingest := func(b int) op {
		return func(e *lcEngine) error {
			_, err := e.eng.Ingest(log.batches[b])
			return err
		}
	}
	stream := func(b int) op {
		return func(e *lcEngine) error {
			app, err := e.eng.OpenStream(seqlog.StreamOptions{})
			if err != nil {
				return err
			}
			for evs := log.batches[b]; len(evs) > 0; evs = evs[min(7, len(evs)):] {
				if err := app.Append(evs[:min(7, len(evs))]); err != nil {
					app.Close()
					return err
				}
			}
			return app.Close()
		}
	}
	freeze := func(e *lcEngine) error {
		if err := e.eng.Freeze(); !errors.Is(err, storage.ErrSegmentsDisabled) {
			return err
		}
		return nil
	}
	period := "" // the write partition, which a reopened handle restores
	rotate := func(p string) op {
		return func(e *lcEngine) error {
			period = p
			return e.eng.RotatePeriod(p)
		}
	}
	drop := func(p string) op {
		return func(e *lcEngine) error { return e.eng.DropPeriod(p) }
	}
	// prune forgets the traces whose last batch is at most b.
	prune := func(b int) op {
		var ids []int64
		for tr, k := range log.home {
			if k+1 <= b {
				ids = append(ids, tr)
			}
		}
		return func(e *lcEngine) error { return e.eng.PruneTraces(ids) }
	}
	reopen := func(e *lcEngine) error {
		if e.reopen == nil {
			return nil
		}
		if err := e.eng.Close(); err != nil {
			return err
		}
		e.eng = e.reopen()
		return e.eng.RotatePeriod(period)
	}

	steps := []struct {
		name  string
		batch int // the batch the step ingests, -1 for none
		ops   []op
	}{
		{"ingest b0", 0, []op{ingest(0)}},
		{"stream b1", 1, []op{stream(1)}},
		{"freeze", -1, []op{freeze}},
		{"rotate p1, ingest b2", 2, []op{rotate("p1"), ingest(2)}},
		{"prune", -1, []op{prune(2)}},
		{"reopen", -1, []op{reopen}},
		{"drop p1", -1, []op{drop("p1")}},
		{"stream b3", 3, []op{stream(3)}},
		{"freeze, rotate p2, ingest b4", 4, []op{freeze, rotate("p2"), ingest(4)}},
		{"drop default", -1, []op{drop("")}},
		{"reopen", -1, []op{reopen}},
		{"ingest b5, freeze, drop p2", 5, []op{ingest(5), freeze, drop("p2")}},
		{"prune all", -1, []op{prune(5)}},
		{"freeze, drop p1", -1, []op{freeze, drop("p1")}},
	}
	for si, step := range steps {
		for _, fn := range step.ops {
			for _, e := range engines {
				if err := fn(e); err != nil {
					t.Fatalf("step %d (%s) on %s: %v", si, step.name, e.name, err)
				}
			}
		}
		if step.batch >= 0 {
			ref.add(log.batches[step.batch])
		}
		waitFollower(t, primary, follower)
		want, names := ref.last()
		for _, e := range append(engines, &lcEngine{name: "follower", eng: follower}) {
			for _, a := range names {
				for _, b := range names {
					st, err := e.eng.Stats(context.Background(), []string{a, b}, seqlog.StatsOptions{})
					if err != nil {
						t.Fatalf("step %d (%s), %s: Stats(%s,%s): %v", si, step.name, e.name, a, b, err)
					}
					if got := st.Pairs[0].LastCompletion; got != want[[2]string{a, b}] {
						t.Fatalf("step %d (%s), %s: LastCompletion(%s,%s) = %d, want %d",
							si, step.name, e.name, a, b, got, want[[2]string{a, b}])
					}
				}
			}
		}
	}
}
