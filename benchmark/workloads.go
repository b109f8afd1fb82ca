package main

import (
	"fmt"
	"os"
	"reflect"
	"sync"
	"time"

	"seqlog"
)

// Sizes and rates of the four workloads. They were chosen once, on the commit
// that added the benchmark, and are frozen: a later change that edits them
// changes what every earlier number meant. README.md says how each was
// picked. The smoke profile swaps every corpus for max_100.

// readSpec is a closed-loop read workload over one durable seqserver.
type readSpec struct {
	dataset string
	scale   float64
	cacheMB int // -cache-mb; 0 keeps the server's 64 MiB default
	mix     readMix
	warmOps int
}

var hotRead = readSpec{
	dataset: "med_5000", scale: 1,
	mix: readMix{poolSize: 512, minLen: 2, maxLen: 4, zipf: true,
		exploreMode: seqlog.Hybrid, exploreMaxLen: 4},
	warmOps: 2000,
}

var coldRead = readSpec{
	dataset: "bpi_2017", scale: 0.1, cacheMB: 1,
	mix: readMix{poolSize: 256, minLen: 3, maxLen: 8,
		exploreMode: seqlog.Accurate, exploreMaxLen: 3, withinEvery: 4},
	warmOps: 200,
}

// ingestSpec is the fixed-work write workload: every cycle starts a fresh
// server and ingests the whole corpus through two writers.
type ingestSpec struct {
	dataset string
	scale   float64
	batch   int
	// cyclesPer10s scales the fixed work with -seconds: one cycle takes
	// about 10/cyclesPer10s seconds on the commit that froze it.
	cyclesPer10s int
	checkPool    int // patterns compared against the reference after the kill
}

var ingestBatch = ingestSpec{dataset: "max_5000", scale: 0.15, batch: 250, cyclesPer10s: 3, checkPool: 128}

// fleetSpec is the open-loop mixed workload over two seqshards.
type fleetSpec struct {
	dataset      string
	scale        float64
	preloadShare float64 // of the time-ordered events; the rest feeds the writer
	mix          readMix
	warmOps      int
	readRate     float64 // reads per second offered in the window
	checkRate    float64 // reads per second of the warm-up and of the final check
	readWorkers  int     // bound on reads in flight
	writeBatch   int
	writeRate    float64 // batches per second offered
}

var fleetMixed = fleetSpec{
	dataset: "med_5000", scale: 1, preloadShare: 0.8,
	mix: readMix{poolSize: 512, minLen: 2, maxLen: 4, zipf: true,
		exploreMode: seqlog.Hybrid, exploreMaxLen: 4},
	warmOps:  500,
	readRate: 200, checkRate: 500, readWorkers: 16,
	writeBatch: 10, writeRate: 10,
}

const (
	smokeDataset = "max_100"
	clients      = 2 // closed-loop connections; the host's nproc when the sizes were frozen
)

// result is what one workload run measured.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`          // end to end
	Layers    map[string]float64 `json:"layers,omitempty"` // traced runs only
	// Samples is the number of observations behind each metric.
	Samples map[string]int `json:"samples"`
	// Invalid, when set, says why the load generator could not be trusted on
	// this run: the numbers then measure the generator, not the servers.
	Invalid string `json:"invalid,omitempty"`
	// Info holds numbers worth reading that are not contract metrics.
	Info   map[string]float64 `json:"info,omitempty"`
	Inputs map[string]string  `json:"inputs"` // digests of what was sent
}

func newResult(workload string, r *runner) *result {
	res := &result{Workload: workload, Seed: r.seed, Seconds: r.seconds,
		Metrics: map[string]float64{}, Samples: map[string]int{},
		Info: map[string]float64{}, Inputs: map[string]string{}}
	if r.trace {
		res.Layers = map[string]float64{}
	}
	return res
}

func (res *result) absorb(rec *recorder) {
	res.Attempted += rec.attempted
	res.Failed += rec.failed
	res.Info["read_retries"] += float64(rec.retries)
	if rec.firstFail != "" {
		res.Failures = append(res.Failures, rec.firstFail)
	}
}

// check counts one consistency check and, when why is not empty, its failure.
func (res *result) check(why string) {
	res.Attempted++
	if why != "" {
		res.Failed++
		res.Failures = append(res.Failures, why)
	}
}

func (res *result) set(name string, v float64, samples int) {
	res.Metrics[name] = v
	res.Samples[name] = samples
}

// latency records the median and 95th percentile of the primary op class and
// the median of the secondary one.
func (res *result) latency(op, op2 []float64) {
	res.set("op_p50_ms", percentile(op, 0.50), len(op))
	res.set("op_p95_ms", percentile(op, 0.95), len(op))
	res.set("op2_p50_ms", percentile(op2, 0.50), len(op2))
	res.Info["op2_p95_ms"] = percentile(op2, 0.95)
}

// status200 accepts any 200 answer: what discarded warm-up cycles and reads
// racing writes can check.
func status200(*template, []byte) string { return "" }

// buildStore ingests events into a fresh durable store under dir, in-process,
// and hands back the open engine: the caller may question it as an oracle and
// then calls freezeAndClose. shards > 1 lays the store out as that many
// shard directories.
func buildStore(dir string, shards int, events []seqlog.Event) (*seqlog.Engine, error) {
	eng, err := seqlog.Open(seqlog.Config{Dir: dir, Shards: shards, Segments: true})
	if err != nil {
		return nil, err
	}
	if _, err := eng.Ingest(events); err != nil {
		eng.Close()
		return nil, err
	}
	return eng, nil
}

// freezeAndClose folds postings into segments, compacts the WAL and closes.
func freezeAndClose(eng *seqlog.Engine) error {
	if err := eng.Compact(); err != nil { // freezes first
		eng.Close()
		return err
	}
	return eng.Close()
}

// runRead is hot_read and cold_read: build the index in-process, freeze it,
// serve it from a real seqserver, and drive it closed-loop.
func (r *runner) runRead(name string, spec readSpec) (*result, error) {
	res := newResult(name, r)
	if r.smoke {
		spec.dataset, spec.scale, spec.warmOps = smokeDataset, 1, 50
		spec.mix.poolSize = 32
	}
	t0 := time.Now()
	c, err := makeCorpus(spec.dataset, spec.scale, r.seed)
	if err != nil {
		return nil, err
	}
	// Enough ops for the fastest plausible server; the cursor wraps anyway.
	traffic := makeReadTraffic(c, spec.mix, r.seed, spec.warmOps+int(20000*r.seconds))
	inputTime := time.Since(t0)
	res.Inputs["events"], res.Inputs["ops"] = c.digest(), traffic.digest()
	if err := r.checkPins(name, res.Inputs); err != nil {
		return nil, err
	}

	var (
		tp         *topology
		dir        string
		setupTimes []float64
	)
	for i := 0; i < r.setups(); i++ {
		last := i == r.setups()-1
		t0 := time.Now()
		if dir, err = r.tmpDir("data"); err != nil {
			return nil, err
		}
		eng, err := buildStore(dir, 1, c.events)
		if err != nil {
			return nil, err
		}
		// The oracle answers from the rows as ingested; the server will
		// answer from the frozen, block-compressed segment of the same
		// data, reopened in another process. Its time is the checker's, not
		// the product's, and stays out of setup_s.
		var oracleTime time.Duration
		check := checkFn(status200)
		if last {
			o0 := time.Now()
			if err := fillExpected(eng, traffic.templates); err != nil {
				eng.Close()
				return nil, err
			}
			oracleTime = time.Since(o0)
			res.Info["oracle_s"] = oracleTime.Seconds()
			check = exactAnswer
		}
		if err := freezeAndClose(eng); err != nil {
			return nil, err
		}
		if tp, err = r.startServer(dir, spec.cacheMB); err != nil {
			return nil, err
		}
		warm, _ := closedLoop(r.hc, tp.base, traffic.templates, traffic.ops[:spec.warmOps], clients, spec.warmOps, 0, check)
		res.absorb(warm)
		setupTimes = append(setupTimes, (inputTime + time.Since(t0) - oracleTime).Seconds())
		if !last {
			tp.stop()
			os.RemoveAll(dir)
		}
	}
	defer tp.stop()
	res.set("setup_s", median(setupTimes), len(setupTimes))
	disk, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}

	w := r.beginWindow(tp)
	rec, wall := closedLoop(r.hc, tp.base, traffic.templates, traffic.ops[spec.warmOps:], clients, 0, r.window(), exactAnswer)
	w.end(res, rec, wall)
	res.absorb(rec)
	if rec.completed() == 0 {
		return res, nil
	}
	res.latency(rec.lat[opDetect], rec.lat[opExplore])
	res.set("peak_rss_mb", tp.peakRSSMB(), 1)
	res.set("disk_bytes_per_event", float64(disk)/float64(len(c.events)), 1)
	res.Info["stats_p50_ms"] = percentile(rec.lat[opStats], 0.50)
	if r.trace {
		tp.stop()
		if err := r.readLadder(res, dir, spec.cacheMB, traffic, spec.warmOps); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runIngest is ingest_batch: per cycle, a fresh empty server takes the whole
// corpus from two closed-loop writers, is killed, and its directory is
// reopened in-process to check that everything acked is there.
func (r *runner) runIngest(name string, spec ingestSpec) (*result, error) {
	res := newResult(name, r)
	cycles := int(float64(spec.cyclesPer10s)*r.seconds/10 + 0.5)
	if cycles < 1 || r.trace {
		cycles = 1
	}
	if r.smoke {
		spec.dataset, spec.scale, spec.batch, spec.checkPool = smokeDataset, 1, 100, 16
		cycles = 1
	}
	inputs := func() (*corpus, [][]*template, error) {
		c, err := makeCorpus(spec.dataset, spec.scale, r.seed)
		if err != nil {
			return nil, nil, err
		}
		return c, makeIngestTraffic(c.events, spec.batch, []opKind{opIngest, opStream}), nil
	}
	c, writers, err := inputs()
	if err != nil {
		return nil, err
	}
	res.Inputs["events"], res.Inputs["ops"] = c.digest(), ingestDigest(writers)
	if err := r.checkPins(name, res.Inputs); err != nil {
		return nil, err
	}
	var sent []seqlog.Event
	for _, w := range writers {
		for _, t := range w {
			sent = append(sent, t.evs...)
		}
	}

	per := map[string][]float64{}
	var acks [numOpKinds][]float64
	for cycle := 0; cycle < cycles; cycle++ {
		// Set-up is small here, so every cycle generates its inputs again:
		// three independent samples, not one shared term plus three starts.
		t0 := time.Now()
		if _, _, err := inputs(); err != nil {
			return nil, err
		}
		dir, err := r.tmpDir("data")
		if err != nil {
			return nil, err
		}
		tp, err := r.startServer(dir, 0)
		if err != nil {
			return nil, err
		}
		per["setup_s"] = append(per["setup_s"], time.Since(t0).Seconds())

		w := r.beginWindow(tp)
		recs := make([]*recorder, len(writers))
		var wg sync.WaitGroup
		start := time.Now()
		for i := range writers {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				recs[i], _ = closedLoop(r.hc, tp.base, writers[i], nil, 1, len(writers[i]), 0, ackedAll)
			}(i)
		}
		wg.Wait()
		rec := &recorder{}
		for _, wr := range recs {
			rec.merge(wr)
		}
		w.end(res, rec, time.Since(start))
		res.absorb(rec)
		for _, name := range []string{"ops_per_s", "server_cpu_ms_per_op"} {
			per[name] = append(per[name], res.Metrics[name])
		}
		per["peak_rss_mb"] = append(per["peak_rss_mb"], tp.peakRSSMB())
		for k := range acks {
			acks[k] = append(acks[k], rec.lat[k]...)
		}
		raw, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}
		tp.procs[0].kill()
		if rec.failed > 0 {
			// What was acked is no longer "everything sent"; the run is
			// already incorrect and the checks below would only add noise.
			return res, nil
		}

		// Acked-readable-after-kill: the process is gone, the page cache is
		// not, so this proves an ack waited for the write to be issued, not
		// that the bytes reached the device.
		eng, err := seqlog.Open(seqlog.Config{Dir: dir, Segments: true})
		if err != nil {
			res.check(fmt.Sprintf("reopen after kill: %v", err))
			return res, nil
		}
		res.check(ackedReadable(eng, sent))
		if cycle == cycles-1 { // the differential check costs a rebuild: once per run
			res.check(detectAgrees(eng, sent, c, spec))
		}
		f0 := time.Now()
		if err := eng.Freeze(); err != nil {
			eng.Close()
			return nil, err
		}
		freeze := time.Since(f0)
		seg := eng.SegmentStats()
		if err := freezeAndClose(eng); err != nil {
			return nil, err
		}
		disk, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}
		per["disk_bytes_per_event"] = append(per["disk_bytes_per_event"], float64(disk)/float64(len(sent)))
		if r.trace {
			res.Layers["kvstore.wal_bytes_per_event"] = float64(raw) / float64(len(sent))
			res.Layers["storage.freeze_s"] = freeze.Seconds()
			if seg.Entries > 0 {
				res.Layers["storage.segment_bytes_per_entry"] = float64(seg.Bytes) / float64(seg.Entries)
			}
		}
		os.RemoveAll(dir)
	}
	for name, xs := range per {
		res.set(name, median(xs), len(xs))
	}
	res.latency(acks[opIngest], acks[opStream])
	res.Info["events_per_s"] = res.Metrics["ops_per_s"] * float64(spec.batch)
	if r.trace {
		if err := r.writeLadder(res, writers); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ackedReadable checks that every trace of the reopened store holds exactly
// the events that were acked for it, in order.
func ackedReadable(eng *seqlog.Engine, acked []seqlog.Event) string {
	byTrace := map[int64][]seqlog.Event{}
	for _, ev := range acked {
		byTrace[ev.Trace] = append(byTrace[ev.Trace], ev)
	}
	for id, want := range byTrace {
		got, _, err := eng.TraceEvents(id)
		if err != nil || !reflect.DeepEqual(got, want) {
			return fmt.Sprintf("after kill: trace %d holds %d events, %d were acked (err=%v)", id, len(got), len(want), err)
		}
	}
	return ""
}

// detectAgrees checks that Detect on the reopened store equals Detect on an
// in-memory engine fed the same events.
func detectAgrees(eng *seqlog.Engine, acked []seqlog.Event, c *corpus, spec ingestSpec) string {
	ref, err := seqlog.Open(seqlog.Config{})
	if err != nil {
		return "reference engine: " + err.Error()
	}
	defer ref.Close()
	if _, err := ref.Ingest(acked); err != nil {
		return "reference engine: " + err.Error()
	}
	for _, p := range makePool(c.log, spec.checkPool, 2, 4) {
		t := &template{kind: opDetect, pattern: p}
		want, err1 := answer(ref, t)
		got, err2 := answer(eng, t)
		if err1 != nil || err2 != nil || string(want) != string(got) {
			return fmt.Sprintf("after kill: detect %v differs from the reference (errs %v, %v)", p, err1, err2)
		}
	}
	return ""
}

// preloadCut splits the time-ordered events into preload and writer's share:
// at share, or later if need be so that the preload holds every activity. A
// read replica cannot name an activity first ingested after it opened
// (README.md, known failures), and the benchmark's workloads are ones on
// which nothing fails.
func preloadCut(events []seqlog.Event, share float64) int {
	cut := int(float64(len(events)) * share)
	seen := map[string]bool{}
	for i, ev := range events {
		if !seen[ev.Activity] {
			seen[ev.Activity] = true
			if i >= cut {
				cut = i + 1
			}
		}
	}
	return cut
}

// runFleet is fleet_mixed: reads and writes at fixed rates over two seqshard
// processes, timed from when each request was due.
func (r *runner) runFleet(name string, spec fleetSpec) (*result, error) {
	res := newResult(name, r)
	if r.smoke {
		spec.dataset, spec.scale, spec.warmOps = smokeDataset, 1, 50
		spec.mix.poolSize = 32
		spec.readRate, spec.checkRate, spec.writeRate = 100, 200, 5
	}
	t0 := time.Now()
	c, err := makeCorpus(spec.dataset, spec.scale, r.seed)
	if err != nil {
		return nil, err
	}
	nReads := int(spec.readRate * r.seconds)
	readInterval := time.Duration(float64(time.Second) / spec.readRate)
	checkInterval := time.Duration(float64(time.Second) / spec.checkRate)
	traffic := makeReadTraffic(c, spec.mix, r.seed, spec.warmOps+nReads)
	cut := preloadCut(c.events, spec.preloadShare)
	writes := makeIngestTraffic(c.events[cut:], spec.writeBatch, []opKind{opIngest})[0]
	if n := int(spec.writeRate * r.seconds); n < len(writes) {
		writes = writes[:n]
	}
	inputTime := time.Since(t0)
	res.Inputs["events"], res.Inputs["ops"] = c.digest(), traffic.digest()
	if err := r.checkPins(name, res.Inputs); err != nil {
		return nil, err
	}

	var (
		tp         *topology
		base       string
		setupTimes []float64
	)
	for i := 0; i < r.setups(); i++ {
		last := i == r.setups()-1
		t0 := time.Now()
		if base, err = r.tmpDir("fleet"); err != nil {
			return nil, err
		}
		eng, err := buildStore(base, fleetShards, c.events[:cut])
		if err != nil {
			return nil, err
		}
		if err := freezeAndClose(eng); err != nil {
			return nil, err
		}
		if tp, err = r.startFleet(base); err != nil {
			return nil, err
		}
		warm, _ := openLoop(r.hc, tp.readBase, func(i int) *template { return traffic.templates[traffic.ops[i]] },
			spec.warmOps, checkInterval, spec.readWorkers, status200)
		res.absorb(warm)
		setupTimes = append(setupTimes, (inputTime + time.Since(t0)).Seconds())
		if !last {
			tp.stop()
			os.RemoveAll(base)
		}
	}
	defer tp.stop()
	res.set("setup_s", median(setupTimes), len(setupTimes))

	var (
		reads, wrote *recorder
		late         []float64
		wg           sync.WaitGroup
	)
	w := r.beginWindow(tp)
	start := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		ops := traffic.ops[spec.warmOps:]
		reads, late = openLoop(r.hc, tp.readBase, func(i int) *template { return traffic.templates[ops[i]] },
			nReads, readInterval, spec.readWorkers, status200)
	}()
	go func() {
		defer wg.Done()
		// One worker: a trace's events must arrive in time order. The
		// writer's own lateness is its stall, already in its latency.
		wrote, _ = openLoop(r.hc, tp.base, func(i int) *template { return writes[i] },
			len(writes), time.Duration(float64(time.Second)/spec.writeRate), 1, ackedAll)
	}()
	wg.Wait()
	both := &recorder{}
	both.merge(reads)
	both.merge(wrote)
	w.end(res, both, time.Since(start))
	res.absorb(both)
	if both.completed() == 0 {
		return res, nil
	}
	res.latency(reads.lat[opDetect], wrote.lat[opIngest])
	res.Info["explore_p50_ms"] = percentile(reads.lat[opExplore], 0.50)
	res.Info["stats_p50_ms"] = percentile(reads.lat[opStats], 0.50)
	res.Info["loadgen_late_p95_ms"] = percentile(late, 0.95)
	if l := res.Info["loadgen_late_p95_ms"]; l > maxLoadgenLateMS {
		res.Invalid = fmt.Sprintf("the load generator ran %.1f ms behind schedule at p95, more than %.0f ms", l, maxLoadgenLateMS)
	}
	if wrote.failed > 0 {
		return res, nil // the final state is undefined; the run is already incorrect
	}

	// Drained: both loops returned, so every request was answered. The fleet
	// must now answer every template exactly as a local in-memory engine fed
	// the preload and the acked batches does.
	acked := append([]seqlog.Event(nil), c.events[:cut]...)
	for _, t := range writes {
		acked = append(acked, t.evs...)
	}
	ref, err := seqlog.Open(seqlog.Config{})
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	if _, err := ref.Ingest(acked); err != nil {
		return nil, err
	}
	if err := fillExpected(ref, traffic.templates); err != nil {
		return nil, err
	}
	final, _ := openLoop(r.hc, tp.readBase, func(i int) *template { return traffic.templates[i] },
		len(traffic.templates), checkInterval, spec.readWorkers, exactAnswer)
	res.absorb(final)

	res.set("peak_rss_mb", tp.peakRSSMB(), 1)
	tp.stop()
	// disk_bytes_per_event measures the stores at rest, frozen and
	// compacted, not whatever their WALs held when the servers stopped.
	eng, err := seqlog.Open(seqlog.Config{Dir: base, Shards: fleetShards, Segments: true})
	if err != nil {
		return nil, err
	}
	if err := freezeAndClose(eng); err != nil {
		return nil, err
	}
	var disk int64
	for _, d := range tp.dirs {
		n, err := dirBytes(d)
		if err != nil {
			return nil, err
		}
		disk += n
	}
	res.set("disk_bytes_per_event", float64(disk)/float64(len(acked)), 1)
	if r.trace {
		res.Layers["loadgen.late_p95_ms"] = res.Info["loadgen_late_p95_ms"]
		if err := r.fleetLadder(res, base, traffic, spec.warmOps, writes); err != nil {
			return nil, err
		}
	}
	return res, nil
}
