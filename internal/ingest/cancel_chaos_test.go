package ingest

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seqlog/internal/kvstore"
	"seqlog/internal/model"
	"seqlog/internal/query"
	"seqlog/internal/storage"
)

// TestCancellationBoundedUnderSlowDisk is the chaos harness of the
// cancellation work: every filesystem write crawls at 50ms/op (FaultFS
// OpDelay — an overloaded disk), a producer keeps the pipeline flushing
// through that crawl, and the test asserts the two bounds the design
// promises:
//
//   - a canceled query returns within a small multiple of the cooperative
//     check interval, not after the disk recovers — queries never wait on
//     the stalled write path;
//   - a FlushCtx whose deadline expires returns promptly with the context
//     error while the flusher keeps grinding behind it.
//
// Afterwards the goroutine count must settle back to the baseline: nobody
// keeps working for an abandoned caller.
func TestCancellationBoundedUnderSlowDisk(t *testing.T) {
	baseline := runtime.NumGoroutine()

	ffs := kvstore.NewFaultFS(nil)
	var slow atomic.Bool
	ffs.OpDelay = func(op, path string) time.Duration {
		if !slow.Load() {
			return 0
		}
		switch op {
		case "write", "sync", "syncdir":
			return 50 * time.Millisecond
		}
		return 0
	}
	ds, err := kvstore.OpenDiskWith(t.TempDir(), kvstore.DiskOptions{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	tb := storage.NewTables(ds)
	p, err := New(tb, Options{
		Policy:        model.STNM,
		Workers:       2,
		FlushEvents:   128,
		FlushInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Load a real index at full disk speed so queries have rows to walk.
	rng := rand.New(rand.NewSource(9))
	if err := p.Append(randomLog(rng, 16, 4000, 5)); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}

	// From here on the disk crawls, and a producer keeps flushes in flight.
	slow.Store(true)
	prodCtx, stopProd := context.WithCancel(context.Background())
	prng := rand.New(rand.NewSource(10))
	prodEvents := randomLog(prng, 16, 2000, 5)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for lo := 0; lo < len(prodEvents); lo += 64 {
			hi := lo + 64
			if hi > len(prodEvents) {
				hi = len(prodEvents)
			}
			if err := p.AppendCtx(prodCtx, prodEvents[lo:hi], true); err != nil {
				return // teardown cancel; any earlier error shows up in Close
			}
		}
	}()

	// Canceled queries must return in small multiples of the check interval
	// (microseconds of join work), never after the 50ms/op disk.
	proc := query.NewProcessor(tb)
	pat := model.Pattern{0, 1, 2}
	const bound = time.Second
	for round := 0; round < 5; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		var qerr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				if _, err := proc.Detect(ctx, pat); err != nil {
					qerr = err
					return
				}
			}
		}()
		time.Sleep(2 * time.Millisecond)
		t0 := time.Now()
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: canceled query still running after 5s", round)
		}
		if d := time.Since(t0); d > bound {
			t.Errorf("round %d: cancel took %v, want < %v", round, d, bound)
		}
		if !errors.Is(qerr, context.Canceled) {
			t.Errorf("round %d: query error = %v, want context.Canceled", round, qerr)
		}
	}

	// A flush wait abandons promptly on deadline even though the flusher is
	// mid-crawl. (The flush itself keeps going: other producers may depend
	// on the commit.)
	if err := p.AppendCtx(prodCtx, randomLog(rng, 4, 64, 5), true); err != nil {
		t.Fatal(err)
	}
	fctx, fcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	t0 := time.Now()
	ferr := p.FlushCtx(fctx)
	fcancel()
	if d := time.Since(t0); d > time.Second {
		t.Errorf("FlushCtx returned after %v, want < 1s", d)
	}
	if ferr != nil && !errors.Is(ferr, context.DeadlineExceeded) {
		t.Errorf("FlushCtx error = %v, want nil or context.DeadlineExceeded", ferr)
	}

	stopProd()
	wg.Wait()
	slow.Store(false) // let the drain in Close run at full speed
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// No zombie workers: everything spawned for queries, flushes and the
	// pipeline itself must be gone once the pipeline is closed.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Errorf("goroutines leaked: %d running, baseline was %d", g, baseline)
	}
}
