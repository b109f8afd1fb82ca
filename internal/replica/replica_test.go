package replica_test

// End-to-end replication tests: a real primary engine behind a real HTTP
// handler, a real follower engine pulling /replicate over the wire. The
// differential oracle asserts the property replication exists for — a
// caught-up follower is indistinguishable from its primary across every
// query family, byte for byte.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"seqlog"
	"seqlog/internal/httpclient"
	"seqlog/internal/replica"
	"seqlog/internal/server"
)

// fastClient retries aggressively with no real sleeping, so tests converge
// quickly.
func fastClient() *httpclient.Client {
	return &httpclient.Client{Retries: 8, Sleep: func(time.Duration) {}}
}

func fastOptions() replica.Options {
	return replica.Options{Client: fastClient(), PollInterval: 5 * time.Millisecond, WaitMS: 50}
}

// openPrimary opens a durable primary engine and serves it over HTTP.
func openPrimary(t *testing.T, cfg seqlog.Config) (*seqlog.Engine, *httptest.Server) {
	t.Helper()
	cfg.Dir = t.TempDir()
	eng, err := seqlog.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv := httptest.NewServer(server.New(eng))
	t.Cleanup(srv.Close)
	return eng, srv
}

// openFollower opens a read-only engine and starts it replicating primary.
func openFollower(t *testing.T, primary string, cfg seqlog.Config) *seqlog.Engine {
	t.Helper()
	cfg.Dir = t.TempDir()
	cfg.ReadOnly = true
	eng, err := seqlog.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if err := eng.StartFollower(primary, fastOptions()); err != nil {
		t.Fatal(err)
	}
	return eng
}

// ingestBatches writes n small batches with overlapping activities so every
// query family has work to do.
func ingestBatches(t *testing.T, eng *seqlog.Engine, base, n int) {
	t.Helper()
	acts := []string{"login", "browse", "add-to-cart", "checkout", "pay"}
	for b := 0; b < n; b++ {
		var events []seqlog.Event
		for tr := 0; tr < 6; tr++ {
			trace := int64(base + b*6 + tr)
			for i, a := range acts {
				events = append(events, seqlog.Event{Trace: trace, Activity: a, Time: int64(1000*b + 10*i + tr)})
			}
		}
		if _, err := eng.Ingest(events); err != nil {
			t.Fatal(err)
		}
	}
}

// waitCaughtUp blocks until the follower has applied everything the primary
// has made durable (same epoch, same offset, tailing state). Replication only
// ships fsynced bytes, so the primary is synced first — otherwise a trailing
// un-synced write (e.g. a prune) would never arrive.
func waitCaughtUp(t *testing.T, primary, follower *seqlog.Engine) {
	t.Helper()
	if err := primary.Sync(); err != nil {
		t.Fatal(err)
	}
	src, ok := primary.ReplicaSource()
	if !ok {
		t.Fatal("primary cannot serve replication")
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		pst, err := src.State()
		if err != nil {
			t.Fatal(err)
		}
		fst := follower.Replication()
		if fst == nil {
			t.Fatal("follower has no replication stats")
		}
		if fst.State == "tailing" && fst.Epoch == pst.Epoch && fst.Offset == pst.WALDurable {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower never caught up: primary=%+v follower=%+v",
		mustState(t, src), *follower.Replication())
}

func mustState(t *testing.T, src *replica.Source) replica.State {
	t.Helper()
	st, err := src.State()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// oracle asserts byte-identical answers from both engines across the query
// families: Detect, DetectWithin, the policy-dependent scan and Stats
// (plus Traces, the reported policy and the alphabet for good measure).
func oracle(t *testing.T, primary, follower *seqlog.Engine, pattern []string) {
	t.Helper()
	ctx := context.Background()
	check := func(name string, q func(*seqlog.Engine) (any, error)) {
		t.Helper()
		pv, perr := q(primary)
		fv, ferr := q(follower)
		if (perr == nil) != (ferr == nil) {
			t.Fatalf("%s: error mismatch: primary=%v follower=%v", name, perr, ferr)
		}
		if perr != nil {
			return
		}
		pj, _ := json.Marshal(pv)
		fj, _ := json.Marshal(fv)
		if !bytes.Equal(pj, fj) {
			t.Fatalf("%s diverged:\nprimary:  %s\nfollower: %s", name, pj, fj)
		}
	}
	check("Detect", func(e *seqlog.Engine) (any, error) { return e.Detect(ctx, pattern, seqlog.DetectOptions{}) })
	check("Traces", func(e *seqlog.Engine) (any, error) {
		ms, err := e.Detect(ctx, pattern, seqlog.DetectOptions{})
		return seqlog.Traces(ms), err
	})
	check("DetectWithin", func(e *seqlog.Engine) (any, error) {
		return e.Detect(ctx, pattern, seqlog.DetectOptions{Within: 100})
	})
	check("DetectScan", func(e *seqlog.Engine) (any, error) {
		return e.Detect(ctx, pattern, seqlog.DetectOptions{Scan: true})
	})
	check("Policy", func(e *seqlog.Engine) (any, error) {
		info, err := e.Info()
		return info.Policy, err
	})
	check("Stats", func(e *seqlog.Engine) (any, error) { return e.Stats(ctx, pattern, seqlog.StatsOptions{}) })
	check("NumTraces", func(e *seqlog.Engine) (any, error) { return e.NumTraces() })
	check("Activities", func(e *seqlog.Engine) (any, error) { return e.Activities(), nil })
}

func TestFollowerCatchupOracle(t *testing.T) {
	primary, srv := openPrimary(t, seqlog.Config{})
	follower := openFollower(t, srv.URL, seqlog.Config{})

	ingestBatches(t, primary, 0, 5)
	waitCaughtUp(t, primary, follower)
	oracle(t, primary, follower, []string{"login", "checkout", "pay"})

	// More batches after the catch-up: the tail keeps flowing.
	ingestBatches(t, primary, 1000, 3)
	if err := primary.PruneTraces([]int64{2, 3}); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, primary, follower)
	oracle(t, primary, follower, []string{"login", "checkout", "pay"})
	oracle(t, primary, follower, []string{"browse", "pay"})

	if fst := follower.Replication(); fst.LagBytes != 0 || fst.AppliedGroups == 0 {
		t.Fatalf("stats look wrong after catch-up: %+v", *fst)
	}
	if role := follower.Role(); role != "follower" {
		t.Fatalf("follower role = %q", role)
	}
}

// TestFollowerTakesPrimaryPolicy: a follower passes no policy. Its store
// is empty at open, so it learns how the index was built from the meta the
// primary pins, and the policy-dependent scan answers as on the primary.
func TestFollowerTakesPrimaryPolicy(t *testing.T) {
	primary, srv := openPrimary(t, seqlog.Config{Policy: "SC"})
	follower := openFollower(t, srv.URL, seqlog.Config{})
	ingestBatches(t, primary, 0, 3)
	waitCaughtUp(t, primary, follower)
	oracle(t, primary, follower, []string{"login", "checkout", "pay"})
	oracle(t, primary, follower, []string{"browse", "pay"})
}

func TestFollowerRejectsLocalWrites(t *testing.T) {
	primary, srv := openPrimary(t, seqlog.Config{})
	follower := openFollower(t, srv.URL, seqlog.Config{})
	ingestBatches(t, primary, 0, 1)
	waitCaughtUp(t, primary, follower)

	if _, err := follower.Ingest([]seqlog.Event{{Trace: 1, Activity: "x", Time: 1}}); err != seqlog.ErrReadOnly {
		t.Fatalf("Ingest on follower: %v, want ErrReadOnly", err)
	}
	if err := follower.PruneTraces([]int64{1}); err != seqlog.ErrReadOnly {
		t.Fatalf("PruneTraces on follower: %v, want ErrReadOnly", err)
	}
	if err := follower.RotatePeriod("p2"); err != seqlog.ErrReadOnly {
		t.Fatalf("RotatePeriod on follower: %v, want ErrReadOnly", err)
	}

	// Over HTTP the same rejection is a 403.
	fsrv := httptest.NewServer(server.New(follower))
	defer fsrv.Close()
	resp, err := http.Post(fsrv.URL+"/ingest", "application/json",
		bytes.NewReader([]byte(`{"events":[{"Trace":9,"Activity":"x","Time":1}]}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("POST /ingest on follower: status %d, want 403", resp.StatusCode)
	}
}

func TestFollowerSegmentShippingAndResync(t *testing.T) {
	primary, srv := openPrimary(t, seqlog.Config{})
	ingestBatches(t, primary, 0, 4)
	// Freeze the postings into a segment file and compact: the WAL epoch
	// advances, so a fresh follower must take the snapshot+segment path.
	if err := primary.Compact(); err != nil {
		t.Fatal(err)
	}
	ingestBatches(t, primary, 500, 2)

	follower := openFollower(t, srv.URL, seqlog.Config{})
	waitCaughtUp(t, primary, follower)
	oracle(t, primary, follower, []string{"login", "checkout", "pay"})
	if fseg := follower.SegmentStats(); fseg.Segments != primary.SegmentStats().Segments {
		t.Fatalf("segment tier not replicated: follower=%+v primary=%+v",
			fseg, primary.SegmentStats())
	}
	if fst := follower.Replication(); fst.Resyncs != 1 {
		t.Fatalf("expected exactly one resync, got %+v", *fst)
	}

	// A second freeze+compact while the follower is live: it must follow
	// the segment switch and the epoch bump without manual help.
	ingestBatches(t, primary, 800, 2)
	if err := primary.Compact(); err != nil {
		t.Fatal(err)
	}
	ingestBatches(t, primary, 900, 1)
	waitCaughtUp(t, primary, follower)
	oracle(t, primary, follower, []string{"login", "checkout", "pay"})
}

// flakyProxy forwards to base but kills every response after a few KB, and
// periodically refuses outright — the network a follower actually lives on.
type flakyProxy struct {
	base  string
	calls atomic.Int64
}

func (p *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := p.calls.Add(1)
	if n%7 == 0 {
		panic(http.ErrAbortHandler) // connection reset before headers
	}
	resp, err := http.Get(p.base + r.URL.RequestURI())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	body, _ := io.ReadAll(resp.Body)
	if n%3 == 0 && len(body) > 512 {
		// Deliver a prefix, then cut the connection mid-body.
		w.Write(body[:512])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}
	w.Write(body)
}

func TestFollowerSurvivesChaosNoGoroutineLeak(t *testing.T) {
	primary, srv := openPrimary(t, seqlog.Config{})
	proxy := httptest.NewServer(&flakyProxy{base: srv.URL})
	defer proxy.Close()

	// The primary's first write starts its ingestion pipeline, which runs
	// until the primary closes; count it in the baseline.
	ingestBatches(t, primary, 0, 2)
	baseline := runtime.NumGoroutine()

	cfg := seqlog.Config{Dir: t.TempDir(), ReadOnly: true}
	follower, err := seqlog.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.StartFollower(proxy.URL, fastOptions()); err != nil {
		t.Fatal(err)
	}

	for round := 1; round < 3; round++ {
		ingestBatches(t, primary, round*100, 2)
	}
	waitCaughtUp(t, primary, follower)
	oracle(t, primary, follower, []string{"login", "checkout", "pay"})

	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	// Idle keep-alive connections (the follower's and the proxy's outbound
	// requests both ride http.DefaultClient) each hold transport goroutines;
	// drop them so the count converges to the pre-follower baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		http.DefaultClient.CloseIdleConnections()
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Errorf("goroutines leaked after follower shutdown: %d running, baseline %d", g, baseline)
	}
}

func TestFollowerReadinessSplit(t *testing.T) {
	primary, srv := openPrimary(t, seqlog.Config{})
	follower := openFollower(t, srv.URL, seqlog.Config{})
	ingestBatches(t, primary, 0, 2)
	waitCaughtUp(t, primary, follower)

	fsrv := httptest.NewServer(server.NewWith(follower, server.Options{ReadyMaxLagBytes: 1 << 20}))
	defer fsrv.Close()

	for _, path := range []string{"/health/live", "/health/ready"} {
		resp, err := http.Get(fsrv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s on caught-up follower: %d", path, resp.StatusCode)
		}
	}

	// A follower that cannot reach its primary is still alive, and once the
	// staleness bound trips it must stop reporting ready.
	srv.Close()
	stale := httptest.NewServer(server.NewWith(follower, server.Options{ReadyMaxStale: time.Nanosecond}))
	defer stale.Close()
	time.Sleep(5 * time.Millisecond)
	resp, err := http.Get(stale.URL + "/health/ready")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /health/ready with unreachable primary: %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(stale.URL + "/health/live")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /health/live must stay 200 while lagging, got %d", resp.StatusCode)
	}
}

func TestFollowerResumesAcrossRestart(t *testing.T) {
	primary, srv := openPrimary(t, seqlog.Config{})
	ingestBatches(t, primary, 0, 3)

	dir := t.TempDir()
	open := func() *seqlog.Engine {
		eng, err := seqlog.Open(seqlog.Config{Dir: dir, ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.StartFollower(srv.URL, fastOptions()); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	f1 := open()
	waitCaughtUp(t, primary, f1)
	if err := f1.Close(); err != nil {
		t.Fatal(err)
	}

	// New writes land while the follower is down; after reopen it resumes
	// from its durable cursor (no resync — the epoch never changed).
	ingestBatches(t, primary, 300, 2)
	f2 := open()
	defer f2.Close()
	waitCaughtUp(t, primary, f2)
	oracle(t, primary, f2, []string{"login", "checkout", "pay"})
	if st := f2.Replication(); st.Resyncs != 0 {
		t.Fatalf("restart must not resync when the epoch is unchanged: %+v", *st)
	}
}

// --- router tests ---

// fakeBackend is a minimal seqserver stand-in with controllable readiness.
type fakeBackend struct {
	name  string
	ready atomic.Bool
	lag   atomic.Int64
	dead  atomic.Bool // refuse everything (simulates a dark host)
	hits  atomic.Int64
}

func (b *fakeBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if b.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	switch r.URL.Path {
	case "/health/ready":
		body := map[string]any{"status": "ok", "replication": map[string]any{"lagBytes": b.lag.Load()}}
		code := http.StatusOK
		if !b.ready.Load() {
			code = http.StatusServiceUnavailable
			body["status"] = "lagging"
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(body)
	default:
		b.hits.Add(1)
		fmt.Fprintf(w, `{"served-by":%q}`, b.name)
	}
}

func startRouter(t *testing.T, primary *httptest.Server, replicas ...*httptest.Server) (*replica.Router, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(replicas))
	for i, r := range replicas {
		urls[i] = r.URL
	}
	router, err := replica.NewRouter(replica.RouterOptions{
		Primary:       primary.URL,
		Replicas:      urls,
		ProbeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	srv := httptest.NewServer(router)
	t.Cleanup(srv.Close)
	return router, srv
}

func TestRouterBalancesReadsAndPinsWrites(t *testing.T) {
	p := &fakeBackend{name: "primary"}
	r1 := &fakeBackend{name: "r1"}
	r2 := &fakeBackend{name: "r2"}
	for _, b := range []*fakeBackend{p, r1, r2} {
		b.ready.Store(true)
	}
	ps, rs1, rs2 := httptest.NewServer(p), httptest.NewServer(r1), httptest.NewServer(r2)
	defer ps.Close()
	defer rs1.Close()
	defer rs2.Close()
	_, router := startRouter(t, ps, rs1, rs2)

	for i := 0; i < 10; i++ {
		resp, err := http.Post(router.URL+"/detect", "application/json", bytes.NewReader([]byte(`{}`)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if r1.hits.Load() == 0 || r2.hits.Load() == 0 {
		t.Fatalf("reads not balanced: r1=%d r2=%d", r1.hits.Load(), r2.hits.Load())
	}
	if p.hits.Load() != 0 {
		t.Fatalf("reads reached the primary while replicas were ready: %d", p.hits.Load())
	}

	for i := 0; i < 4; i++ {
		resp, err := http.Post(router.URL+"/ingest", "application/json", bytes.NewReader([]byte(`{"events":[]}`)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if p.hits.Load() != 4 {
		t.Fatalf("writes must pin to the primary: primary saw %d of 4", p.hits.Load())
	}
}

func TestRouterFailsOverAndDrainsLagging(t *testing.T) {
	p := &fakeBackend{name: "primary"}
	r1 := &fakeBackend{name: "r1"}
	p.ready.Store(true)
	r1.ready.Store(true)
	ps, rs1 := httptest.NewServer(p), httptest.NewServer(r1)
	defer ps.Close()
	defer rs1.Close()
	router, rsrv := startRouter(t, ps, rs1)

	get := func() string {
		resp, err := http.Get(rsrv.URL + "/activities")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.Header.Get("X-Seqrouter-Backend")
	}
	if got := get(); got != rs1.URL {
		t.Fatalf("read went to %s, want the replica %s", got, rs1.URL)
	}

	// The replica goes dark mid-flight: the same request must fail over to
	// the primary within the request, not after the next probe tick.
	r1.dead.Store(true)
	if got := get(); got != ps.URL {
		t.Fatalf("read after replica death went to %q, want primary %s", got, ps.URL)
	}

	// It comes back but reports itself not ready: probes must drain it.
	r1.dead.Store(false)
	r1.ready.Store(false)
	time.Sleep(50 * time.Millisecond)
	if got := get(); got != ps.URL {
		t.Fatalf("read to drained replica: went to %q, want primary", got)
	}

	// Ready again: traffic returns.
	r1.ready.Store(true)
	deadline := time.Now().Add(2 * time.Second)
	for get() != rs1.URL {
		if time.Now().After(deadline) {
			t.Fatal("replica never rejoined the read rotation")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Status endpoint reflects the fleet.
	var status struct {
		Backends []replica.BackendStatus `json:"backends"`
	}
	resp, err := http.Get(rsrv.URL + "/router/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if len(status.Backends) != 2 || status.Backends[0].Role != "primary" {
		t.Fatalf("unexpected status: %+v", status)
	}
	_ = router
}
