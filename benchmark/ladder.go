package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"seqlog"
	"seqlog/internal/index"
	"seqlog/internal/kvstore"
	"seqlog/internal/model"
	"seqlog/internal/netshard"
	"seqlog/internal/pairs"
	"seqlog/internal/query"
	"seqlog/internal/server"
	"seqlog/internal/shard"
	"seqlog/internal/storage"
)

// The traced run. It measures the same window as an untraced run with the
// servers' /metrics read before and after it (the only tracing the servers
// see, so the difference between the two runs' end-to-end numbers is the
// tracing overhead), then replays a prefix of the same seeded ops
// single-threaded at each seam of the product, from this file, recording a
// span per op and rung. Counters come only from surfaces the product already
// has: /metrics, SegmentStats and ReadRows.

const (
	readLadderOps      = 2000 // ops of the window replayed at each read rung
	fleetLadderOps     = 1000
	fleetLadderBatches = 20
	writeLadderBatches = 100
)

// ladderSize is n, or a twentieth of it on the smoke profile.
func (r *runner) ladderSize(n int) int {
	if r.smoke {
		return n / 20
	}
	return n
}

// scrape is one reading of some /metrics endpoints: series (name plus label
// block) to value, summed over the endpoints.
type scrape map[string]float64

func (r *runner) scrapeURLs(urls []string) scrape {
	s := scrape{}
	for _, u := range urls {
		resp, err := r.hc.Get(u)
		if err != nil {
			continue // a counter that cannot be read shows as 0
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			i := strings.LastIndexByte(line, ' ')
			if i < 0 || strings.HasPrefix(line, "#") {
				continue
			}
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				s[line[:i]] += v
			}
		}
		resp.Body.Close()
	}
	return s
}

// sum adds every series of the metric, whatever its labels.
func (s scrape) sum(metric string) float64 {
	var total float64
	for k, v := range s {
		if k == metric || strings.HasPrefix(k, metric+"{") {
			total += v
		}
	}
	return total
}

func (s scrape) minus(o scrape) scrape {
	d := scrape{}
	for k, v := range s {
		d[k] = v - o[k]
	}
	return d
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// A generator that uses more than half a core or runs more than 5 ms behind
// its schedule at the 95th percentile makes the run invalid, not slow.
const (
	maxLoadgenCPU    = 0.5
	maxLoadgenLateMS = 5.0
)

// windowProbe brackets one measured window.
type windowProbe struct {
	r            *runner
	tp           *topology
	cpu0, self0  float64
	front, store scrape
}

func (r *runner) beginWindow(tp *topology) *windowProbe {
	w := &windowProbe{r: r, tp: tp}
	if r.trace {
		w.front, w.store = r.scrapeURLs(tp.frontMetrics), r.scrapeURLs(tp.storeMetrics)
	}
	w.cpu0, w.self0 = tp.cpuMS(), selfCPUMS()
	return w
}

// end records what the window cost the servers and, on a traced run, the
// counters that moved during it.
func (w *windowProbe) end(res *result, rec *recorder, wall time.Duration) {
	cpu1, self1 := w.tp.cpuMS(), selfCPUMS()
	done := float64(rec.completed())
	if done == 0 {
		return
	}
	res.set("ops_per_s", done/wall.Seconds(), int(done))
	res.set("server_cpu_ms_per_op", (cpu1-w.cpu0)/done, int(done))
	cpuFrac := (self1 - w.self0) / (wall.Seconds() * 1000)
	res.Info["loadgen_cpu_frac"] = cpuFrac
	if cpuFrac > maxLoadgenCPU {
		res.Invalid = fmt.Sprintf("the load generator used %.2f of a core, more than %.2f", cpuFrac, maxLoadgenCPU)
	}
	if !w.r.trace {
		return
	}
	front := w.r.scrapeURLs(w.tp.frontMetrics).minus(w.front)
	store := w.r.scrapeURLs(w.tp.storeMetrics).minus(w.store)
	L := res.Layers
	var clientMS []float64
	for k := range rec.lat {
		clientMS = append(clientMS, rec.lat[k]...)
	}
	hits, misses := store.sum("seqlog_cache_hits_total"), store.sum("seqlog_cache_misses_total")
	L["storage.cache_hit_ratio"] = ratio(hits, hits+misses)
	L["storage.cache_misses_per_op"] = misses / done
	L["storage.cache_evictions_per_kop"] = 1000 * store.sum("seqlog_cache_evictions_total") / done
	// The histogram's own quantiles are powers of two; sum over count is the
	// one server-side latency fine enough to set beside the client's.
	serverMS := 1000 * ratio(front.sum("seqlog_http_request_duration_seconds_sum"), front.sum("seqlog_http_request_duration_seconds_count"))
	L["server.self_mean_ms"] = serverMS
	L["loadgen.client_minus_server_ms"] = mean(clientMS) - serverMS
	L["server.resp_bytes_per_op"] = float64(rec.respBytes) / done
	L["netshard.rpcs_per_op"] = front.sum("seqlog_netshard_rpc_seconds_count") / done
	L["loadgen.cpu_frac"] = cpuFrac
	L["loadgen.read_retries"] = float64(rec.retries)
	if writes := float64(len(rec.lat[opIngest]) + len(rec.lat[opStream])); writes > 0 {
		fsyncs := store.sum("seqlog_wal_fsync_seconds_count")
		L["kvstore.fsyncs_per_batch"] = fsyncs / writes
		L["kvstore.fsync_mean_ms"] = 1000 * ratio(store.sum("seqlog_wal_fsync_seconds_sum"), fsyncs)
		L["kvstore.compactions"] = store.sum("seqlog_wal_compaction_seconds_count")
		L["kvstore.compaction_s"] = store.sum("seqlog_wal_compaction_seconds_sum")
		L["ingest.commit_wait_mean_ms"] = 1000 * ratio(front.sum("seqlog_ingest_commit_wait_seconds_sum"), front.sum("seqlog_ingest_commit_wait_seconds_count"))
		L["ingest.flushes"] = front.sum("seqlog_ingest_batches_total")
		L["ingest.stalls"] = front.sum("seqlog_ingest_stalls_total")
	}
}

// span is one timed call into one layer. Start and End are nanoseconds since
// the log was created. Parent names the rung above on the same op: rungs run
// one after another, not nested, so the relation is by op, not by time.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Rung     string `json:"rung"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
	Parent   string `json:"parent,omitempty"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) write(path string) error {
	raw, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// rung replays n ops through fn, one at a time, and returns each op's span in
// milliseconds. parent is the rung one layer up.
func (r *runner) rung(workload, name, parent string, n int, label func(i int) string, fn func(i int) error) ([]float64, error) {
	if r.spans.t0.IsZero() {
		r.spans.t0 = time.Now()
	}
	ms := make([]float64, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(i); err != nil {
			return nil, fmt.Errorf("ladder rung %s, op %d (%s): %w", name, i, label(i), err)
		}
		end := time.Now()
		ms[i] = float64(end.Sub(start)) / float64(time.Millisecond)
		r.spans.spans = append(r.spans.spans, span{Name: label(i), Workload: workload, Op: i, Rung: name,
			Start: int64(start.Sub(r.spans.t0)), End: int64(end.Sub(r.spans.t0)), Parent: parent})
	}
	return ms, nil
}

// meanWhere averages a[i]-b[i] (b may be nil) over the ops keep selects, in
// microseconds.
func meanWhere(a, b []float64, keep func(i int) bool) float64 {
	var sum float64
	n := 0
	for i := range a {
		if !keep(i) {
			continue
		}
		sum += a[i]
		if b != nil {
			sum -= b[i]
		}
		n++
	}
	return 1000 * ratio(sum, float64(n))
}

func cacheBytes(mb int) int64 { return int64(mb) << 20 }

// openTables opens the store under dir the way the engine does, below it.
func openTables(dir string, cacheMB int) (*kvstore.DiskStore, *storage.Tables, error) {
	ds, err := kvstore.OpenDiskWith(dir, kvstore.DiskOptions{})
	if err != nil {
		return nil, nil, err
	}
	tab, err := storage.OpenTables(ds, storage.Options{SegmentDir: filepath.Join(dir, "segments")})
	if err != nil {
		ds.Close()
		return nil, nil, err
	}
	if cacheMB != 0 {
		tab.SetCacheBudget(cacheBytes(cacheMB))
	}
	return ds, tab, nil
}

func openEngine(dir string, cacheMB int) (*seqlog.Engine, error) {
	return seqlog.Open(seqlog.Config{Dir: dir, Segments: true, CacheBytes: cacheBytes(cacheMB)})
}

// ids resolves a template's pattern against the store's alphabet, given as
// the activity names in id order.
func ids(names []string) func(t *template) model.Pattern {
	byName := make(map[string]model.ActivityID, len(names))
	for i, n := range names {
		byName[n] = model.ActivityID(i)
	}
	return func(t *template) model.Pattern {
		p := make(model.Pattern, len(t.pattern))
		for i, n := range t.pattern {
			p[i] = byName[n]
		}
		return p
	}
}

// fetchPostings is the storage rung: what the join asks of storage for one
// pattern, with every block decoded. It returns the entries visited.
func fetchPostings(ctx context.Context, tab storage.Backend, t *template, p model.Pattern) (int, error) {
	entries := 0
	for i := 0; i+1 < len(p); i++ {
		if t.kind == opStats {
			if _, _, err := tab.GetPairCount(ctx, p[i], p[i+1]); err != nil {
				return 0, err
			}
			continue
		}
		po, err := tab.GetPostings(ctx, model.NewPairKey(p[i], p[i+1]))
		if err != nil {
			return 0, err
		}
		for _, run := range po.Runs {
			if run.Blocks == nil {
				entries += len(run.Entries)
				continue
			}
			for b := 0; b < run.Blocks.NumBlocks(); b++ {
				es, err := run.Blocks.Block(b)
				if err != nil {
					return 0, err
				}
				entries += len(es)
			}
		}
	}
	return entries, nil
}

// runQuery is the query rung: the processor call the engine would make.
func runQuery(ctx context.Context, proc *query.Processor, t *template, p model.Pattern) (int, error) {
	switch t.kind {
	case opDetect:
		var ms []query.Match
		var err error
		if t.within > 0 {
			ms, err = proc.DetectWithin(ctx, p, t.within)
		} else {
			ms, err = proc.Detect(ctx, p)
		}
		return len(ms), err
	case opStats:
		_, err := proc.Stats(ctx, p)
		return 0, err
	case opExplore:
		var err error
		if t.mode == seqlog.Accurate {
			_, err = proc.ExploreAccurate(ctx, p, query.ExploreOptions{})
		} else {
			_, err = proc.ExploreHybrid(ctx, p, query.ExploreOptions{})
		}
		return 0, err
	}
	return 0, fmt.Errorf("no query rung for %s", opKindNames[t.kind])
}

// serverOptions are seqserver's defaults, so the handler rung runs the same
// middleware the real process does.
var serverOptions = server.Options{RequestTimeout: 30 * time.Second, MaxBodyBytes: 64 << 20}

func serveInProcess(h http.Handler, t *template) error {
	req := httptest.NewRequest(http.MethodPost, opPaths[t.kind], bytes.NewReader(t.body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return nil
}

// overHTTP is the top rung: one client, one request at a time.
func (r *runner) overHTTP(base string) func(t *template) error {
	c := &client{http: r.hc, base: base}
	return func(t *template) error {
		status, err := c.post(t)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(c.buf.Bytes()))
		}
		return nil
	}
}

// readLadder replays the first ops of the window at each seam of the read
// path over the same store directory, every rung from a fresh open so all
// start with the same empty cache. The rungs' self times, taken over the
// detect ops, sum to server.http_us by construction.
func (r *runner) readLadder(res *result, dir string, cacheMB int, traffic *readTraffic, skip int) error {
	ops := traffic.ops[skip:]
	ops = ops[:min(len(ops), r.ladderSize(readLadderOps))]
	tmpl := func(i int) *template { return traffic.templates[ops[i]] }
	label := func(i int) string { return opKindNames[tmpl(i).kind] }
	kind := func(k opKind) func(int) bool { return func(i int) bool { return tmpl(i).kind == k } }
	ctx := context.Background()
	wl := res.Workload

	eng, err := openEngine(dir, cacheMB)
	if err != nil {
		return err
	}
	pattern := ids(eng.Activities())
	engineMS, err := r.rung(wl, "engine", "handler", len(ops), label, func(i int) error {
		_, err := ask(eng, tmpl(i))
		return err
	})
	eng.Close()
	if err != nil {
		return err
	}

	if eng, err = openEngine(dir, cacheMB); err != nil {
		return err
	}
	h := server.NewWith(eng, serverOptions)
	handlerMS, err := r.rung(wl, "handler", "http", len(ops), label, func(i int) error {
		return serveInProcess(h, tmpl(i))
	})
	eng.Close()
	if err != nil {
		return err
	}

	ds, tab, err := openTables(dir, cacheMB)
	if err != nil {
		return err
	}
	entries := 0
	storageMS, err := r.rung(wl, "storage", "query", len(ops), label, func(i int) error {
		n, err := fetchPostings(ctx, tab, tmpl(i), pattern(tmpl(i)))
		entries += n
		return err
	})
	tab.Close()
	ds.Close()
	if err != nil {
		return err
	}

	if ds, tab, err = openTables(dir, cacheMB); err != nil {
		return err
	}
	proc := query.NewProcessor(tab)
	matches := 0
	queryMS, err := r.rung(wl, "query", "engine", len(ops), label, func(i int) error {
		n, err := runQuery(ctx, proc, tmpl(i), pattern(tmpl(i)))
		matches += n
		return err
	})
	rows := tab.ReadRows()
	tab.Close()
	ds.Close()
	if err != nil {
		return err
	}

	tp, err := r.startServer(dir, cacheMB)
	if err != nil {
		return err
	}
	post := r.overHTTP(tp.base)
	httpMS, err := r.rung(wl, "http", "", len(ops), label, func(i int) error { return post(tmpl(i)) })
	tp.stop()
	if err != nil {
		return err
	}

	L := res.Layers
	detect := kind(opDetect)
	L["storage.get_postings_us"] = meanWhere(storageMS, nil, detect)
	var fetchMS float64 // stats ops read counts, not postings
	for i, ms := range storageMS {
		if tmpl(i).kind != opStats {
			fetchMS += ms
		}
	}
	L["storage.decode_ns_per_entry"] = 1e6 * ratio(fetchMS, float64(entries))
	L["query.detect_us"] = meanWhere(queryMS, storageMS, detect)
	L["query.stats_us"] = meanWhere(queryMS, storageMS, kind(opStats))
	L["query.explore_us"] = meanWhere(queryMS, storageMS, kind(opExplore))
	L["query.rows_per_match"] = ratio(float64(rows), float64(matches))
	L["engine.detect_us"] = meanWhere(engineMS, queryMS, detect)
	L["server.handler_us"] = meanWhere(handlerMS, engineMS, detect)
	L["server.wire_us"] = meanWhere(httpMS, handlerMS, detect)
	L["server.http_us"] = meanWhere(httpMS, nil, detect)
	res.Info["ladder_detect_sum_us"] = L["storage.get_postings_us"] + L["query.detect_us"] +
		L["engine.detect_us"] + L["server.handler_us"] + L["server.wire_us"]
	return nil
}

// writeLadder replays the first batches of the ingest workload at each seam
// of the write path, alternating the two writers' batches. Every rung starts
// from an empty store. Values are per event; only kvstore.wal is a
// difference (the durable builder minus the in-memory one).
func (r *runner) writeLadder(res *result, writers [][]*template) error {
	var batches [][]seqlog.Event
	var bodies []*template // the /ingest form of each batch, for the handler rung
	for i, limit := 0, r.ladderSize(writeLadderBatches); len(batches) < limit; i++ {
		added := false
		for _, w := range writers {
			if i < len(w) {
				batches = append(batches, w[i].evs)
				bodies = append(bodies, ingestTemplate(opIngest, w[i].evs))
				added = true
			}
		}
		if !added {
			break
		}
	}
	events := 0
	for _, b := range batches {
		events += len(b)
	}
	alphabet := model.NewAlphabet()
	intern := func(b []seqlog.Event) []model.Event {
		out := make([]model.Event, len(b))
		for i, ev := range b {
			out[i] = model.Event{Trace: model.TraceID(ev.Trace), Activity: alphabet.ID(ev.Activity), TS: model.Timestamp(ev.Time)}
		}
		return out
	}
	label := func(int) string { return "batch" }
	perEvent := func(ms []float64) float64 {
		return 1000 * total(ms) / float64(events)
	}
	wl := res.Workload
	L := res.Layers

	// Pair extraction alone, over each touched trace as grown so far: what
	// the indexing method recomputes per batch.
	traces := map[model.TraceID][]model.TraceEvent{}
	ms, err := r.rung(wl, "pairs", "index", len(batches), label, func(i int) error {
		touched := map[model.TraceID]bool{}
		for _, ev := range intern(batches[i]) {
			traces[ev.Trace] = append(traces[ev.Trace], model.TraceEvent{Activity: ev.Activity, TS: ev.TS})
			touched[ev.Trace] = true
		}
		for id := range touched {
			pairs.ExtractSTNM(traces[id], pairs.Indexing)
		}
		return nil
	})
	if err != nil {
		return err
	}
	L["pairs.extract_ns_per_event"] = 1000 * perEvent(ms)

	opts := index.Options{Policy: model.STNM, Method: pairs.Indexing}
	mem, err := index.NewBuilder(storage.NewTables(kvstore.NewMemStore()), opts)
	if err != nil {
		return err
	}
	memMS, err := r.rung(wl, "index", "kvstore", len(batches), label, func(i int) error {
		_, err := mem.Update(intern(batches[i]))
		return err
	})
	if err != nil {
		return err
	}
	L["index.update_mem_us_per_event"] = perEvent(memMS)

	dir, err := r.tmpDir("ladder")
	if err != nil {
		return err
	}
	ds, tab, err := openTables(dir, 0)
	if err != nil {
		return err
	}
	disk, err := index.NewBuilder(tab, opts)
	if err != nil {
		return err
	}
	diskMS, err := r.rung(wl, "kvstore", "engine", len(batches), label, func(i int) error {
		if _, err := disk.Update(intern(batches[i])); err != nil {
			return err
		}
		return ds.Sync() // an ack is an fsync
	})
	tab.Close()
	ds.Close()
	if err != nil {
		return err
	}
	L["kvstore.wal_us_per_event"] = perEvent(diskMS) - perEvent(memMS)

	freshEngine := func() (*seqlog.Engine, error) {
		dir, err := r.tmpDir("ladder")
		if err != nil {
			return nil, err
		}
		return seqlog.Open(seqlog.Config{Dir: dir, Segments: true})
	}
	eng, err := freshEngine()
	if err != nil {
		return err
	}
	ms, err = r.rung(wl, "engine", "handler", len(batches), label, func(i int) error {
		_, err := eng.Ingest(batches[i])
		return err
	})
	eng.Close()
	if err != nil {
		return err
	}
	L["engine.ingest_us_per_event"] = perEvent(ms)

	if eng, err = freshEngine(); err != nil {
		return err
	}
	h := server.NewWith(eng, serverOptions)
	ms, err = r.rung(wl, "handler", "", len(batches), label, func(i int) error {
		return serveInProcess(h, bodies[i])
	})
	eng.Close()
	if err != nil {
		return err
	}
	L["server.ingest_handler_us_per_event"] = perEvent(ms)

	if eng, err = freshEngine(); err != nil {
		return err
	}
	app, err := eng.OpenStream(seqlog.StreamOptions{})
	if err != nil {
		eng.Close()
		return err
	}
	ms, err = r.rung(wl, "stream", "handler", len(batches), label, func(i int) error {
		if err := app.Append(batches[i]); err != nil {
			return err
		}
		return app.Flush()
	})
	app.Close()
	eng.Close()
	if err != nil {
		return err
	}
	L["ingest.stream_us_per_event"] = perEvent(ms)
	return nil
}

// countingConn counts the bytes a netshard connection moves.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// dialFleet opens a sharded backend of netshard clients over addrs, counting
// wire bytes into wire.
func dialFleet(addrs []string, wire *atomic.Int64) (storage.Backend, error) {
	backends := make([]storage.Backend, len(addrs))
	for i, addr := range addrs {
		cl, err := netshard.Dial(addr, netshard.Options{Shard: i,
			Dialer: func(ctx context.Context, addr string) (net.Conn, error) {
				var d net.Dialer
				c, err := d.DialContext(ctx, "tcp", addr)
				if err != nil {
					return nil, err
				}
				return countingConn{c, wire}, nil
			}})
		if err != nil {
			for _, b := range backends[:i] {
				b.Close()
			}
			return nil, err
		}
		backends[i] = cl
	}
	return shard.NewFromBackends(backends, shard.Options{})
}

// fleetLadder prices the wire. Detect ops of the window run over the fleet's
// own (stopped, settled) shard directories three ways: a local two-shard
// backend, the same two stores behind seqshard processes over netshard, and
// through seqrouter over HTTP. Then the first write batches go into an empty
// local two-shard engine and an empty fleet.
func (r *runner) fleetLadder(res *result, base string, traffic *readTraffic, skip int, batches []*template) error {
	var detects []*template
	for _, ti := range traffic.ops[skip:] {
		if t := traffic.templates[ti]; t.kind == opDetect && len(detects) < r.ladderSize(fleetLadderOps) {
			detects = append(detects, t)
		}
	}
	batches = batches[:min(len(batches), r.ladderSize(fleetLadderBatches))]
	label := func(int) string { return "detect" }
	ctx := context.Background()
	wl := res.Workload
	L := res.Layers

	eng, err := seqlog.Open(seqlog.Config{Dir: base, Shards: fleetShards, Segments: true})
	if err != nil {
		return err
	}
	pattern := ids(eng.Activities())
	if err := eng.Close(); err != nil {
		return err
	}

	stores := make([]kvstore.Store, fleetShards)
	segDirs := make([]string, fleetShards)
	for i := range stores {
		ds, err := kvstore.OpenDiskWith(shardDir(base, i), kvstore.DiskOptions{})
		if err != nil {
			return err
		}
		defer ds.Close()
		stores[i], segDirs[i] = ds, filepath.Join(shardDir(base, i), "segments")
	}
	local, err := shard.New(stores, shard.Options{SegmentDirs: segDirs})
	if err != nil {
		return err
	}
	proc := query.NewProcessor(local)
	localMS, err := r.rung(wl, "local2", "net2", len(detects), label, func(i int) error {
		_, err := runQuery(ctx, proc, detects[i], pattern(detects[i]))
		return err
	})
	local.Close()
	for _, s := range stores {
		s.Close()
	}
	if err != nil {
		return err
	}

	tp, err := r.startShards(base)
	if err != nil {
		return err
	}
	defer tp.stop()
	var wire atomic.Int64
	remote, err := dialFleet(tp.shardAddrs, &wire)
	if err != nil {
		return err
	}
	proc = query.NewProcessor(remote)
	netMS, err := r.rung(wl, "net2", "router", len(detects), label, func(i int) error {
		_, err := runQuery(ctx, proc, detects[i], pattern(detects[i]))
		return err
	})
	remote.Close()
	if err != nil {
		return err
	}

	mapPath := filepath.Join(base, "ladder-shards.txt")
	if err := os.WriteFile(mapPath, []byte(strings.Join(tp.shardAddrs, "\n")+"\n"), 0o644); err != nil {
		return err
	}
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	router, err := r.spawn("seqrouter", filepath.Join(base, "ladder-router.log"), "-listen", addr, "-shard-map", mapPath)
	if err != nil {
		return err
	}
	defer router.stop()
	if err := waitReady(router, httpHealthy(r.hc, "http://"+addr)); err != nil {
		return err
	}
	post := r.overHTTP("http://" + addr)
	routerMS, err := r.rung(wl, "router", "", len(detects), label, func(i int) error { return post(detects[i]) })
	if err != nil {
		return err
	}
	router.stop()
	tp.stop()

	L["shard.local2_detect_us"] = 1000 * mean(localMS)
	L["netshard.net2_detect_us"] = 1000 * mean(netMS)
	L["netshard.wire_tax_ratio"] = ratio(L["netshard.net2_detect_us"], L["shard.local2_detect_us"])
	L["netshard.wire_bytes_per_op"] = float64(wire.Load()) / float64(len(detects))
	L["router.http_us"] = 1000 * mean(routerMS)

	// Ingest: the same engine code over two empty local stores and over two
	// empty seqshards.
	blabel := func(int) string { return "batch" }
	ldir, err := r.tmpDir("ladder")
	if err != nil {
		return err
	}
	leng, err := seqlog.Open(seqlog.Config{Dir: ldir, Shards: fleetShards, Segments: true})
	if err != nil {
		return err
	}
	lms, err := r.rung(wl, "ingest-local2", "ingest-net2", len(batches), blabel, func(i int) error {
		_, err := leng.Ingest(batches[i].evs)
		return err
	})
	leng.Close()
	if err != nil {
		return err
	}
	ndir, err := r.tmpDir("ladder")
	if err != nil {
		return err
	}
	ntp, err := r.startShards(ndir)
	if err != nil {
		return err
	}
	defer ntp.stop()
	neng, err := seqlog.Open(seqlog.Config{ShardAddrs: ntp.shardAddrs})
	if err != nil {
		return err
	}
	nms, err := r.rung(wl, "ingest-net2", "", len(batches), blabel, func(i int) error {
		_, err := neng.Ingest(batches[i].evs)
		return err
	})
	neng.Close()
	if err != nil {
		return err
	}
	L["netshard.ingest_vs_local2_ratio"] = ratio(total(nms), total(lms))
	return nil
}
