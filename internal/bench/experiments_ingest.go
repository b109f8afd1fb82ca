package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"seqlog/internal/index"
	"seqlog/internal/ingest"
	"seqlog/internal/kvstore"
	"seqlog/internal/metrics"
	"seqlog/internal/model"
	"seqlog/internal/pairs"
	"seqlog/internal/storage"
)

// ingestChunk is the micro-batch size of the simulated event stream: both
// paths see the same arrival pattern, so the comparison isolates how they
// process it, not how it is delivered.
const ingestChunk = 512

// minSlopeSample is the shortest 1-worker pipeline run whose per-worker
// slope means anything: below the pipeline's 50ms flush interval a run is
// start-up plus a single drain, not steady-state flushing.
const minSlopeSample = 50 * time.Millisecond

// ingestResult is one row of BENCH_ingest.json.
type ingestResult struct {
	Mode      string  `json:"mode"` // "serial", "pipeline" or "durable"
	Workers   int     `json:"workers"`
	Inflight  int     `json:"inflight,omitempty"` // commit pipelining depth (durable modes)
	Events    int     `json:"events"`
	Seconds   float64 `json:"seconds"`
	EventsSec float64 `json:"eventsPerSec"`
	Speedup   float64 `json:"speedup"` // vs the serial baseline of its tier
	// CommitWaitSec is the total time extraction spent blocked handing
	// cycles to the committer (seqlog_ingest_commit_wait_seconds); the
	// stalled-behind-fsync signal of the durable modes.
	CommitWaitSec float64 `json:"commitWaitSec,omitempty"`
}

// Ingest measures streaming-ingestion throughput: the same timestamp-ordered
// event stream, chunked into micro-batches, fed either through repeated
// serial Builder.Update calls (which re-derive each trace's stored prefix
// per batch) or through the concurrent pipeline (resident sessions, sharded
// extraction, one group commit per flush). Reported as events/sec with the
// pipeline at 1, 4 and all-core workers.
func (r *Runner) Ingest() error {
	spec := r.datasets()[0]
	log := r.log(spec)
	events := arrivalOrder(log)
	if len(events) == 0 {
		return fmt.Errorf("ingest: dataset %s is empty", spec.Name)
	}

	r.section("Ingest — streaming pipeline throughput",
		fmt.Sprintf("dataset=%s events=%d chunk=%d policy=STNM/state; serial = one Builder.Update per chunk",
			spec.Name, len(events), ingestChunk))

	serialSec, err := r.ingestSerial(events)
	if err != nil {
		return err
	}
	results := []ingestResult{{
		Mode: "serial", Workers: 1, Events: len(events),
		Seconds: serialSec, EventsSec: float64(len(events)) / serialSec, Speedup: 1,
	}}

	perWorker := map[int]float64{}
	for _, w := range ingestWorkerPoints(r.cfg.Workers) {
		sec, err := r.ingestPipelined(events, w)
		if err != nil {
			return err
		}
		perWorker[w] = float64(len(events)) / sec
		results = append(results, ingestResult{
			Mode: "pipeline", Workers: w, Events: len(events),
			Seconds: sec, EventsSec: float64(len(events)) / sec, Speedup: serialSec / sec,
		})
	}

	// Per-worker slope: throughput at the widest point over the 1-worker
	// point. On a multi-core host a flat line means the parallel flushers
	// are NOT scaling — that is the regression this experiment exists to
	// catch, so it fails loudly instead of quietly writing a JSON row — but
	// only when the sample can show it: a run of a few milliseconds (the
	// smoke test's scale) measures start-up, and is skipped with a reason.
	slope := workerSlope(perWorker)
	cores := runtime.GOMAXPROCS(0)
	oneWorker := time.Duration(float64(len(events)) / perWorker[1] * float64(time.Second))
	switch {
	case cores == 1:
		fmt.Fprintf(r.out(), "note: single-core host — per-worker slope %.2fx is expected to be flat; "+
			"the seqlog_ingest_commit_wait_seconds metric is the stall signal here\n", slope)
	case oneWorker < minSlopeSample:
		fmt.Fprintf(r.out(), "skipped: run too short to resolve per-worker slope (1-worker run took %v, need >= %v)\n",
			oneWorker.Round(time.Microsecond), minSlopeSample)
	case slope < 1.3:
		return fmt.Errorf("ingest: per-worker slope %.2fx on a %d-core host — "+
			"the write path is serialized again (want >= 1.3x; see DESIGN.md on the parallel flushers)", slope, cores)
	}

	durable, err := r.ingestDurableAB(events)
	if err != nil {
		return err
	}
	results = append(results, durable...)

	rows := make([][]string, 0, len(results))
	for _, res := range results {
		wait := "-"
		if res.Mode == "durable" {
			wait = fmt.Sprintf("%.1fms", res.CommitWaitSec*1000)
		}
		rows = append(rows, []string{
			res.Mode, fmt.Sprint(res.Workers), fmt.Sprint(res.Inflight), fmt.Sprint(res.Events),
			fmt.Sprintf("%.3f", res.Seconds),
			fmt.Sprintf("%.0f", res.EventsSec),
			fmt.Sprintf("%.2fx", res.Speedup),
			wait,
		})
	}
	r.table([]string{"mode", "workers", "inflight", "events", "seconds", "events/sec", "speedup", "commit-wait"}, rows)

	if r.cfg.JSONDir == "" {
		return nil
	}
	raw, err := json.MarshalIndent(map[string]any{
		"experiment":  "ingest",
		"dataset":     spec.Name,
		"chunk":       ingestChunk,
		"cores":       cores,
		"workerSlope": slope,
		"results":     results,
	}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(r.cfg.JSONDir, "BENCH_ingest.json")
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(r.out(), "wrote %s\n", path)
	return nil
}

// arrivalOrder interleaves the log's events by timestamp — the shape of a
// live stream — while keeping each trace's events in their original order
// (stable sort; per-trace timestamps are nondecreasing).
func arrivalOrder(log *model.Log) []model.Event {
	events := log.Events()
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	return events
}

// ingestWorkerPoints returns the pipeline worker counts to measure: 1, 2, 4
// and "all cores", deduplicated and ascending. The 2- and 4-worker points
// are always measured — the slope between them is the scaling signal; on a
// single-core machine they show the sharding overhead rather than a parallel
// speedup, which is still worth knowing.
func ingestWorkerPoints(all int) []int {
	if all <= 0 {
		all = runtime.GOMAXPROCS(0)
	}
	points := []int{1, 2, 4}
	if all > 4 {
		points = append(points, all)
	}
	return points
}

// workerSlope is the throughput of the widest worker point over the
// 1-worker point (1.0 = perfectly flat).
func workerSlope(perWorker map[int]float64) float64 {
	base, ok := perWorker[1]
	if !ok || base <= 0 {
		return 0
	}
	widest := 1
	for w := range perWorker {
		if w > widest {
			widest = w
		}
	}
	return perWorker[widest] / base
}

// ingestDurableAB measures the fsync pipelining on a durable store: the
// same paced event stream (fixed arrival rate, so flush cycles form at the
// size trigger instead of one giant drain) on a simulated slow-fsync disk,
// with commits serialized (inflight 1 — extraction stalls behind every
// fsync, the pre-pipelining behavior) against pipelined commits (inflight 2
// — extraction and table writes of cycle N+1 overlap cycle N's fsync). The
// seqlog_ingest_commit_wait_seconds sum is the stall the pipelining
// removes; on a single-core host, where parallel-flusher wall-clock gains
// cannot show, this metric is the acceptance signal.
func (r *Runner) ingestDurableAB(events []model.Event) ([]ingestResult, error) {
	const (
		chunk     = 128
		arrival   = 3 * time.Millisecond // per chunk: ~43k events/sec offered
		syncDelay = 2 * time.Millisecond // simulated disk fsync
	)
	run := func(inflight int) (sec, commitWait float64, err error) {
		dir, err := os.MkdirTemp("", "seqbench-ingest-*")
		if err != nil {
			return 0, 0, err
		}
		defer os.RemoveAll(dir)
		ffs := kvstore.NewFaultFS(nil)
		ffs.OpDelay = func(op, path string) time.Duration {
			if op == "sync" || op == "syncdir" {
				return syncDelay
			}
			return 0
		}
		ds, err := kvstore.OpenDiskWith(dir, kvstore.DiskOptions{FS: ffs})
		if err != nil {
			return 0, 0, err
		}
		defer ds.Close()
		reg := metrics.New()
		p, err := ingest.New(storage.NewTables(ds), ingest.Options{
			Policy:      model.STNM,
			Workers:     2,
			FlushEvents: chunk,
			QueueEvents: len(events) + 1, // deep queue: stalls land on the handoff, not admission
			MaxInflight: inflight,
			Block:       true,
			Metrics:     reg,
		})
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		for off := 0; off < len(events); off += chunk {
			end := min(off+chunk, len(events))
			if err := p.Append(events[off:end]); err != nil {
				p.Close()
				return 0, 0, err
			}
			time.Sleep(arrival)
		}
		if err := p.Close(); err != nil {
			return 0, 0, err
		}
		wait := reg.Histogram("seqlog_ingest_commit_wait_seconds").Snapshot()
		return time.Since(start).Seconds(), wait.Sum.Seconds(), nil
	}

	// Best of three per side: on a loaded (or single-core) host the Go
	// scheduler adds tens of ms of jitter per run, which would swamp the
	// fsync-overlap signal the A/B exists to show.
	best := func(inflight int) (sec, commitWait float64, err error) {
		for i := 0; i < 3; i++ {
			s, w, err := run(inflight)
			if err != nil {
				return 0, 0, err
			}
			if i == 0 || s < sec {
				sec, commitWait = s, w
			}
		}
		return sec, commitWait, nil
	}
	serialSec, serialWait, err := best(1)
	if err != nil {
		return nil, err
	}
	pipeSec, pipeWait, err := best(2)
	if err != nil {
		return nil, err
	}
	n := float64(len(events))
	return []ingestResult{
		{Mode: "durable", Workers: 2, Inflight: 1, Events: len(events),
			Seconds: serialSec, EventsSec: n / serialSec, Speedup: 1, CommitWaitSec: serialWait},
		{Mode: "durable", Workers: 2, Inflight: 2, Events: len(events),
			Seconds: pipeSec, EventsSec: n / pipeSec, Speedup: serialSec / pipeSec, CommitWaitSec: pipeWait},
	}, nil
}

// ingestSerial replays the chunked stream through a fresh serial Builder,
// one Update per chunk, and returns the wall time in seconds.
func (r *Runner) ingestSerial(events []model.Event) (float64, error) {
	tb := storage.NewTables(kvstore.NewMemStore())
	b, err := index.NewBuilder(tb, index.Options{Policy: model.STNM, Method: pairs.State, Workers: 1})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for off := 0; off < len(events); off += ingestChunk {
		end := min(off+ingestChunk, len(events))
		if _, err := b.Update(events[off:end]); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds(), nil
}

// ingestPipelined replays the same chunked stream through the concurrent
// pipeline with the given worker count and returns the wall time (including
// the final drain) in seconds.
func (r *Runner) ingestPipelined(events []model.Event, workers int) (float64, error) {
	tb := storage.NewTables(kvstore.NewMemStore())
	p, err := ingest.New(tb, ingest.Options{
		Policy:      model.STNM,
		Workers:     workers,
		FlushEvents: 4 * ingestChunk,
		Block:       true,
	})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for off := 0; off < len(events); off += ingestChunk {
		end := min(off+ingestChunk, len(events))
		if err := p.Append(events[off:end]); err != nil {
			p.Close()
			return 0, err
		}
	}
	if err := p.Close(); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}
