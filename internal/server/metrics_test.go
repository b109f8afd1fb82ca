package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"seqlog"
	"seqlog/internal/httpclient"
)

// newMetricsServer runs a durable engine (so WAL fsync series exist) with
// the profiler mounted.
func newMetricsServer(t *testing.T) (*httptest.Server, *seqlog.Engine) {
	t.Helper()
	eng, err := seqlog.Open(seqlog.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewWith(eng, Options{Pprof: true}))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	return srv, eng
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestMetricsEndpoint drives every query family plus batch ingest and
// asserts one scrape covers them all — query histograms, HTTP series,
// storage cache, row accounting, WAL fsync and ingest counters. /ingest and
// /ingest/stream feed the engine's one ingestion pipeline, so they share its
// counters, and a stream extending the batch's traces finds their sessions
// resident: it loads no stored event.
func TestMetricsEndpoint(t *testing.T) {
	srv, _ := newMetricsServer(t)
	ingestSample(t, srv.URL)
	post(t, srv.URL+"/detect", DetectRequest{Pattern: []string{"a", "b"}})
	post(t, srv.URL+"/stats", StatsRequest{Pattern: []string{"a", "b"}})
	post(t, srv.URL+"/explore", ExploreRequest{Pattern: []string{"a"}, ExploreOptions: seqlog.ExploreOptions{Mode: "hybrid"}})
	pos := 0
	post(t, srv.URL+"/explore", ExploreRequest{Pattern: []string{"a"}, ExploreOptions: seqlog.ExploreOptions{Mode: "hybrid", Position: &pos}})

	text := scrape(t, srv.URL)
	for _, want := range []string{
		"# TYPE seqlog_query_duration_seconds histogram",
		`seqlog_query_duration_seconds_count{family="detect"} 1`,
		`seqlog_query_duration_seconds_count{family="stats"} 1`,
		`seqlog_query_duration_seconds_count{family="explore"} 1`,
		`seqlog_query_duration_seconds_count{family="explore_insert"} 1`,
		`seqlog_http_requests_total{code="200",route="detect"} 1`,
		`seqlog_http_request_duration_seconds_count{route="ingest"} 1`,
		"seqlog_cache_hits_total",
		"seqlog_cache_misses_total",
		"seqlog_rows_read_total",
		"seqlog_wal_fsync_seconds_count 1",
		"seqlog_wal_size_bytes",
		"seqlog_activities 3",
		"seqlog_traces 2",
		"seqlog_ingest_accepted_total 5",
		"seqlog_ingest_flushed_total 5",
		"seqlog_ingest_batches_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape lacks %q:\n%s", want, text)
		}
	}

	// Streaming ingest adds its 6 events to the same counters; its traces'
	// sessions outlived the /ingest request.
	c := &httpclient.Client{}
	var out StreamResponse
	if err := c.Post(srv.URL+"/ingest/stream", "application/x-ndjson",
		strings.NewReader(streamBody()), &out); err != nil {
		t.Fatal(err)
	}
	text = scrape(t, srv.URL)
	for _, want := range []string{
		"seqlog_ingest_accepted_total 11",
		"seqlog_ingest_flushed_total 11",
		"seqlog_ingest_loaded_events_total 0",
		"seqlog_ingest_flush_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape lacks %q after streaming:\n%s", want, text)
		}
	}

	// The profiler answers outside the API timeout path.
	resp, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline: status %d", resp.StatusCode)
	}
}

// TestMetricsEndpointDisabled is seqserver -metrics=false: no /metrics
// route, queries still answer, and the engine registry still records the
// per-request HTTP series.
func TestMetricsEndpointDisabled(t *testing.T) {
	eng, err := seqlog.Open(seqlog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewWith(eng, Options{DisableMetricsEndpoint: true}))
	t.Cleanup(func() { srv.Close(); eng.Close() })
	ingestSample(t, srv.URL)
	resp, _ := post(t, srv.URL+"/detect", DetectRequest{Pattern: []string{"a", "b"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect with the endpoint off: status %d", resp.StatusCode)
	}
	mr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mr.Body.Close()
	if mr.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics with the endpoint off: status %d, want 404", mr.StatusCode)
	}
	var text strings.Builder
	if err := eng.Metrics().WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	if want := `seqlog_http_requests_total{code="200",route="detect"} 1`; !strings.Contains(text.String(), want) {
		t.Fatalf("engine registry lacks %q:\n%s", want, text.String())
	}
}

// TestMetricsConcurrentScrapeUnderLoad is the -race gate of the whole
// telemetry path: parallel query requests and a live ingest stream hammer
// the registry while /metrics is scraped continuously.
func TestMetricsConcurrentScrapeUnderLoad(t *testing.T) {
	srv, _ := newServer(t)
	ingestSample(t, srv.URL)

	const workers, iters = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch i % 3 {
				case 0:
					post(t, srv.URL+"/detect", DetectRequest{Pattern: []string{"a", "b"}})
				case 1:
					post(t, srv.URL+"/stats", StatsRequest{Pattern: []string{"a", "b", "c"}})
				case 2:
					post(t, srv.URL+"/explore", ExploreRequest{Pattern: []string{"a"}, ExploreOptions: seqlog.ExploreOptions{Mode: "fast"}})
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := &httpclient.Client{}
		for i := 0; i < 10; i++ {
			var lines []string
			for j := 0; j < 50; j++ {
				lines = append(lines, fmt.Sprintf(`{"Trace":%d,"Activity":"s%d","Time":%d}`, 100+j%5, j%7, i*50+j))
			}
			var out StreamResponse
			if err := c.Post(srv.URL+"/ingest/stream", "application/x-ndjson",
				strings.NewReader(strings.Join(lines, "\n")+"\n"), &out); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			text := scrape(t, srv.URL)
			if !strings.Contains(text, `seqlog_http_requests_total{code="200",route="detect"}`) {
				t.Fatalf("final scrape lacks detect requests:\n%s", text)
			}
			return
		default:
			scrape(t, srv.URL)
		}
	}
}
