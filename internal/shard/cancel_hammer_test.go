package shard

import (
	"context"
	"errors"
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

// TestCancelHammer is the -race proof for the cancellation paths: queries
// whose contexts get canceled at random points race concurrent ingest
// flushes, per-shard segment freezes and WAL compactions on a 4-shard disk
// backend. A canceled scatter-gather aborts sibling shard fetches mid-merge;
// this hammer checks none of those abort paths corrupts shared state —
// settled queries must still agree with a serial single-store oracle.
func TestCancelHammer(t *testing.T) {
	const (
		producers = 3
		cancelers = 3
		nShards   = 4
	)
	perProducer := 1000
	if testing.Short() {
		perProducer = 400 // same shape, bounded wall clock for check.sh tiers
	}
	logs := make([][]model.Event, producers)
	var all []model.Event
	for g := 0; g < producers; g++ {
		rng := rand.New(rand.NewSource(int64(2000 + g)))
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
	patterns := []model.Pattern{{0, 1}, {1, 2, 3}, {4, 0}, {0, 1, 2, 3}}

	root := t.TempDir()
	stores := make([]kvstore.Store, nShards)
	disks := make([]*kvstore.DiskStore, nShards)
	segDirs := make([]string, nShards)
	for i := range stores {
		ds, err := kvstore.OpenDisk(filepath.Join(root, fmt.Sprintf("shard-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ds.CompactAt = 0
		stores[i], disks[i] = ds, ds
		segDirs[i] = filepath.Join(root, fmt.Sprintf("seg-%d", i))
	}
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	backend, err := New(stores, Options{Workers: 2, SegmentDirs: segDirs})
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	p, err := ingest.New(backend, ingest.Options{
		Policy:        model.STNM,
		Workers:       2,
		FlushEvents:   256,
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

	// Cancelers fire queries whose contexts die at random points: some
	// before the query starts, some mid-flight, some never. Only context
	// and budget errors are legitimate.
	var qwg sync.WaitGroup
	for r := 0; r < cancelers; r++ {
		qwg.Add(1)
		go func(r int) {
			defer qwg.Done()
			rng := rand.New(rand.NewSource(int64(3000 + r)))
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				ctx, cancel := context.WithCancel(context.Background())
				var timer *time.Timer
				switch rng.Intn(3) {
				case 0:
					cancel() // already dead at entry
				case 1:
					timer = time.AfterFunc(time.Duration(rng.Intn(300))*time.Microsecond, cancel)
				}
				if rng.Intn(2) == 0 {
					ctx = query.WithLimits(ctx, query.Limits{
						MaxRows: int64(1 + rng.Intn(2000)),
						Partial: rng.Intn(2) == 0,
					})
				}
				_, err := proc.Detect(ctx, patterns[(r+i)%len(patterns)])
				if timer != nil {
					timer.Stop()
				}
				if err != nil && !errors.Is(err, context.Canceled) &&
					!errors.Is(err, query.ErrBudgetExceeded) {
					t.Errorf("canceler %d: %v", r, err)
					cancel()
					return
				}
				cancel()
			}
		}(r)
	}
	// One goroutine churns the storage tiers underneath the canceled
	// queries. While producers are writing, only WAL compactions run —
	// FreezePostings requires callers to exclude concurrent writers (the
	// engine freezes under its ingest lock; a flush committing between the
	// freeze's fold scan and its reference switch would be dropped
	// unfolded). Once ingest settles, freezes join the churn: segment swaps
	// racing canceled scatter-gather reads are exactly the documented-safe
	// path this hammer exists to exercise.
	writersDone := make(chan struct{})
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			freezeOK := false
			select {
			case <-writersDone:
				freezeOK = true
			default:
			}
			// Compaction legitimately refuses while a flush's batch group is
			// open on a shard; any other failure is real.
			if freezeOK && i%2 == 0 {
				if err := backend.FreezePostings(); err != nil {
					t.Errorf("freeze: %v", err)
					return
				}
			} else if err := disks[i%nShards].Compact(); err != nil &&
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
	close(writersDone)
	// Let freezes and compactions interleave with the cancelers' queries for
	// a while now that the writers are gone.
	time.Sleep(50 * time.Millisecond)
	close(done)
	qwg.Wait()
	if t.Failed() {
		return
	}

	// After all the aborted scatter-gathers, settled uncanceled queries must
	// still equal a serial single-store build of the same log.
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
			t.Errorf("pattern %v: post-hammer result diverges from serial oracle\ngot:  %v\nwant: %v", pat, got, want)
		}
	}
}
