package shard

import (
	"context"

	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"seqlog/internal/index"
	"seqlog/internal/ingest"
	"seqlog/internal/kvstore"
	"seqlog/internal/model"
	"seqlog/internal/pairs"
	"seqlog/internal/query"
	"seqlog/internal/storage"
)

// TestShardedConcurrentHammer drives a 4-shard disk backend with everything
// at once — concurrent producers streaming through the ingest pipeline,
// scatter-gather Detect queries racing the flushes, and per-shard WAL
// compactions — and then checks the settled index is byte-equivalent to a
// serial single-store build of the same log. Run under -race (the check.sh
// shards tier does) this is the memory-safety proof for the scatter-gather
// paths; the final comparison is the linearizability smoke test.
func TestShardedConcurrentHammer(t *testing.T) {
	const (
		producers = 4
		readers   = 3
		nShards   = 4
	)
	// Disjoint trace id spaces per producer: the pipeline orders events per
	// trace, so one trace must not be split across concurrent appenders.
	perProducer := 1200
	if testing.Short() {
		perProducer = 400 // same shape, bounded wall clock for check.sh tiers
	}
	logs := make([][]model.Event, producers)
	var all []model.Event
	for g := 0; g < producers; g++ {
		rng := rand.New(rand.NewSource(int64(1000 + g)))
		ts := int64(1)
		for len(logs[g]) < perProducer {
			ts += int64(rng.Intn(4))
			logs[g] = append(logs[g], model.Event{
				Trace:    model.TraceID(100*g + 1 + rng.Intn(12)),
				Activity: model.ActivityID(rng.Intn(5)),
				TS:       model.Timestamp(ts),
			})
		}
		all = append(all, logs[g]...)
	}
	patterns := []model.Pattern{{0, 1}, {1, 2, 3}, {4, 0}, {2, 2}, {0, 1, 2, 3}}

	root := t.TempDir()
	stores := make([]kvstore.Store, nShards)
	disks := make([]*kvstore.DiskStore, nShards)
	for i := range stores {
		ds, err := kvstore.OpenDisk(filepath.Join(root, fmt.Sprintf("shard-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ds.CompactAt = 0
		stores[i], disks[i] = ds, ds
	}
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	backend, err := New(stores, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ingest.New(backend, ingest.Options{
		Policy:        model.STNM,
		Workers:       2,
		FlushEvents:   256, // small: many group commits race the readers
		FlushInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	proc := query.NewProcessor(backend)
	done := make(chan struct{})
	var wg sync.WaitGroup

	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(events []model.Event) {
			defer wg.Done()
			for lo := 0; lo < len(events); lo += 64 {
				hi := lo + 64
				if hi > len(events) {
					hi = len(events)
				}
				if err := p.Append(events[lo:hi]); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(logs[g])
	}

	var qwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		qwg.Add(1)
		go func(r int) {
			defer qwg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				// Mid-ingest results are unspecified; they must only be
				// delivered without error and without data races.
				if _, err := proc.Detect(context.Background(), patterns[(r+i)%len(patterns)]); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			// Compaction legitimately refuses while a flush's batch group is
			// open on that shard; any other failure is real.
			if err := disks[i%nShards].Compact(); err != nil &&
				!strings.Contains(err.Error(), "open batch") {
				t.Errorf("compact shard %d: %v", i%nShards, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Wait()
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	close(done)
	qwg.Wait()
	if t.Failed() {
		return
	}

	// Settled state must equal a serial single-store build of the same log.
	oracle := storage.NewTables(kvstore.NewMemStore())
	b, err := index.NewBuilder(oracle, index.Options{Policy: model.STNM, Method: pairs.State, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Update(all); err != nil {
		t.Fatal(err)
	}
	oproc := query.NewProcessor(oracle)
	for _, pat := range patterns {
		want, err := oproc.Detect(context.Background(), pat)
		if err != nil {
			t.Fatal(err)
		}
		got, err := proc.Detect(context.Background(), pat)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("pattern %v: sharded hammer result diverges from serial oracle\ngot:  %v\nwant: %v", pat, got, want)
		}
	}
	if got, want := dumpBackend(t, backend), dumpBackend(t, oracle); got != want {
		t.Errorf("settled sharded tables diverge from serial oracle\ngot:\n%s\nwant:\n%s", got, want)
	}
}
