package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"seqlog"
)

func newServer(t *testing.T) (*httptest.Server, *seqlog.Engine) {
	t.Helper()
	eng, err := seqlog.Open(seqlog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(eng))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	return srv, eng
}

func post(t *testing.T, url string, body any) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp, out
}

func ingestSample(t *testing.T, url string) {
	t.Helper()
	resp, _ := post(t, url+"/ingest", IngestRequest{Events: []seqlog.Event{
		{Trace: 1, Activity: "a", Time: 1},
		{Trace: 1, Activity: "b", Time: 2},
		{Trace: 1, Activity: "c", Time: 3},
		{Trace: 2, Activity: "a", Time: 1},
		{Trace: 2, Activity: "b", Time: 2},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
}

func TestHealthAndActivities(t *testing.T) {
	srv, _ := newServer(t)
	resp, err := http.Get(srv.URL + "/health")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("health: %v %v", resp, err)
	}
	resp.Body.Close()

	ingestSample(t, srv.URL)
	resp, err = http.Get(srv.URL + "/activities")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Activities []string `json:"activities"`
	}
	json.NewDecoder(resp.Body).Decode(&body)
	if len(body.Activities) != 3 {
		t.Fatalf("activities = %v", body.Activities)
	}
}

func TestDetectEndpoint(t *testing.T) {
	srv, _ := newServer(t)
	ingestSample(t, srv.URL)

	resp, out := post(t, srv.URL+"/detect", DetectRequest{Pattern: []string{"a", "b"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	var matches []seqlog.Match
	json.Unmarshal(out["matches"], &matches)
	if len(matches) != 2 {
		t.Fatalf("matches = %v", matches)
	}

	resp, out = post(t, srv.URL+"/detect", DetectRequest{Pattern: []string{"a", "c"}, TracesOnly: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var traces []int64
	json.Unmarshal(out["traces"], &traces)
	if len(traces) != 1 || traces[0] != 1 {
		t.Fatalf("traces = %v", traces)
	}

	// Scan mode agrees on this log.
	resp, out = post(t, srv.URL+"/detect", DetectRequest{Pattern: []string{"a", "b"}, DetectOptions: seqlog.DetectOptions{Scan: true}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scan status %d", resp.StatusCode)
	}
	json.Unmarshal(out["matches"], &matches)
	if len(matches) != 2 {
		t.Fatalf("scan matches = %v", matches)
	}

	// Errors surface as 400s.
	resp, _ = post(t, srv.URL+"/detect", DetectRequest{Pattern: nil})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty pattern status %d", resp.StatusCode)
	}
}

// TestDetectOptionsCompose pins how the /detect body fields combine: the
// engine's DetectOptions pick one detection (scan, within or the join),
// tracesOnly only shapes whichever answer it gave, and scan with within has
// no sound answer. Trace 1 (Y A Y Z) holds A Y Z only for the scan, the
// EXPERIMENTS finding-1 shape; trace 2's only A→B completion spans 1,000 ms.
func TestDetectOptionsCompose(t *testing.T) {
	srv, _ := newServer(t)
	resp, _ := post(t, srv.URL+"/ingest", IngestRequest{Events: []seqlog.Event{
		{Trace: 1, Activity: "Y", Time: 1}, {Trace: 1, Activity: "A", Time: 2},
		{Trace: 1, Activity: "Y", Time: 3}, {Trace: 1, Activity: "Z", Time: 4},
		{Trace: 2, Activity: "A", Time: 0}, {Trace: 2, Activity: "B", Time: 1000},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	for _, tc := range []struct {
		body   string
		status int
		want   string // the exact response body, or a substring of a 400's error
	}{
		{`{"pattern":["A","B"],"tracesOnly":true}`, http.StatusOK, `{"traces":[2]}`},
		{`{"pattern":["A","B"],"within":1000}`, http.StatusOK, `{"matches":[{"Trace":2,"Times":[0,1000]}]}`},
		{`{"pattern":["A","B"],"within":10,"tracesOnly":true}`, http.StatusOK, `{}`},
		{`{"pattern":["A","B"],"within":10,"scan":true}`, http.StatusBadRequest, "scan detection does not support within"},
		{`{"pattern":["A","Y","Z"]}`, http.StatusOK, `{}`},
		{`{"pattern":["A","Y","Z"],"scan":true}`, http.StatusOK, `{"matches":[{"Trace":1,"Times":[2,3,4]}]}`},
		{`{"pattern":["A","Y","Z"],"scan":true,"tracesOnly":true}`, http.StatusOK, `{"traces":[1]}`},
	} {
		resp, err := http.Post(srv.URL+"/detect", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		got := strings.TrimSpace(string(raw))
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d (%s), want %d", tc.body, resp.StatusCode, got, tc.status)
			continue
		}
		if tc.status == http.StatusOK && got != tc.want || tc.status != http.StatusOK && !strings.Contains(got, tc.want) {
			t.Errorf("%s: answered %s, want %s", tc.body, got, tc.want)
		}
	}
}

// TestMalformedQueryRejectedWhateverTheData: a query the options make
// malformed fails before any name resolves, so a pattern over unknown
// activities gets the same error as one over known activities — from the
// engine and, as a 400, from the handler. A single-event scan stays legal.
func TestMalformedQueryRejectedWhateverTheData(t *testing.T) {
	srv, eng := newServer(t)
	resp, _ := post(t, srv.URL+"/ingest", IngestRequest{Events: []seqlog.Event{
		{Trace: 1, Activity: "A", Time: 1}, {Trace: 1, Activity: "B", Time: 2},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	ctx := context.Background()
	engine := map[string]func([]byte) error{
		"/detect": func(body []byte) error {
			var req DetectRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatal(err)
			}
			_, err := eng.Detect(ctx, req.Pattern, req.DetectOptions)
			return err
		},
		"/stats": func(body []byte) error {
			var req StatsRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatal(err)
			}
			_, err := eng.Stats(ctx, req.Pattern, req.StatsOptions)
			return err
		},
		"/explore": func(body []byte) error {
			var req ExploreRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatal(err)
			}
			_, err := eng.Explore(ctx, req.Pattern, req.ExploreOptions)
			return err
		},
	}
	for _, tc := range []struct {
		path, body     string // body formats the pattern in at %s
		known, unknown string
		want           string // a substring of the error
	}{
		{"/detect", `{"pattern":%s}`, `["A"]`, `["Z"]`, "at least two events"},
		{"/detect", `{"pattern":%s,"within":-5}`, `["A","B"]`, `["A","Z"]`, "within must not be negative"},
		{"/detect", `{"pattern":%s,"within":-5,"scan":true}`, `["A","B"]`, `["A","Z"]`, "within must not be negative"},
		{"/stats", `{"pattern":%s}`, `["A"]`, `["Z"]`, "at least two events"},
		{"/stats", `{"pattern":%s,"allPairs":true}`, `["A"]`, `["Z"]`, "at least two events"},
		{"/explore", `{"pattern":%s,"mode":"bogus"}`, `["A","B"]`, `["A","Z"]`, "unknown explore mode"},
		{"/explore", `{"pattern":%s,"mode":"accurate","position":10}`, `["A","B"]`, `["A","Z"]`, "position out of range"},
		{"/explore", `{"pattern":%s,"position":-1}`, `["A","B"]`, `["A","Z"]`, "position out of range"},
		{"/explore", `{"pattern":%s,"topK":-3}`, `["A","B"]`, `["A","Z"]`, "topK must not be negative"},
		{"/explore", `{"pattern":%s,"maxAvgGap":-1}`, `["A","B"]`, `["A","Z"]`, "maxAvgGap must not be negative"},
	} {
		var errs []string
		for _, pattern := range []string{tc.known, tc.unknown} {
			body := fmt.Sprintf(tc.body, pattern)
			err := engine[tc.path]([]byte(body))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s %s: engine error %v, want %q", tc.path, body, err, tc.want)
				continue
			}
			resp, out := post(t, srv.URL+tc.path, json.RawMessage(body))
			var msg string
			json.Unmarshal(out["error"], &msg)
			if resp.StatusCode != http.StatusBadRequest || msg != err.Error() {
				t.Errorf("%s %s: status %d %q, want 400 %q", tc.path, body, resp.StatusCode, msg, err)
			}
			errs = append(errs, err.Error())
		}
		if len(errs) == 2 && errs[0] != errs[1] {
			t.Errorf("%s %s: known activities fail with %q, unknown with %q", tc.path, tc.body, errs[0], errs[1])
		}
	}
	for _, pattern := range []string{`["A"]`, `["Z"]`} {
		body := fmt.Sprintf(`{"pattern":%s,"scan":true}`, pattern)
		if resp, _ := post(t, srv.URL+"/detect", json.RawMessage(body)); resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d, want 200", body, resp.StatusCode)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv, _ := newServer(t)
	ingestSample(t, srv.URL)
	resp, out := post(t, srv.URL+"/stats", StatsRequest{Pattern: []string{"a", "b"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var pairsJSON []seqlog.PairStats
	json.Unmarshal(out["Pairs"], &pairsJSON)
	if len(pairsJSON) != 1 || pairsJSON[0].Completions != 2 {
		t.Fatalf("stats = %v", pairsJSON)
	}
}

func TestExploreEndpoint(t *testing.T) {
	srv, _ := newServer(t)
	ingestSample(t, srv.URL)
	for _, mode := range []string{"accurate", "fast", "hybrid", ""} {
		resp, out := post(t, srv.URL+"/explore", ExploreRequest{Pattern: []string{"a", "b"},
			ExploreOptions: seqlog.ExploreOptions{Mode: seqlog.ExploreMode(mode), TopK: 3}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mode %q status %d: %v", mode, resp.StatusCode, out)
		}
		var props []seqlog.Proposal
		json.Unmarshal(out["proposals"], &props)
		if len(props) != 1 || props[0].Activity != "c" {
			t.Fatalf("mode %q proposals = %v", mode, props)
		}
	}
	resp, _ := post(t, srv.URL+"/explore", ExploreRequest{Pattern: []string{"a"}, ExploreOptions: seqlog.ExploreOptions{Mode: "bogus"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus mode status %d", resp.StatusCode)
	}
}

func TestPruneAndPeriods(t *testing.T) {
	srv, eng := newServer(t)
	ingestSample(t, srv.URL)

	resp, _ := post(t, srv.URL+"/periods/rotate", RotateRequest{Period: "p1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rotate status %d", resp.StatusCode)
	}
	resp, _ = post(t, srv.URL+"/periods/rotate", RotateRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty period status %d", resp.StatusCode)
	}

	resp, _ = post(t, srv.URL+"/prune", PruneRequest{Traces: []int64{2}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prune status %d", resp.StatusCode)
	}
	n, _ := eng.NumTraces()
	if n != 1 {
		t.Fatalf("traces after prune = %d", n)
	}

	resp, err := http.Get(srv.URL + "/periods")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("periods: %v %v", resp, err)
	}
	resp.Body.Close()
}

func TestBadJSONRejected(t *testing.T) {
	srv, _ := newServer(t)
	resp, err := http.Post(srv.URL+"/detect", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// Unknown fields are rejected too (decoder is strict).
	resp2, err := http.Post(srv.URL+"/detect", "application/json", bytes.NewReader([]byte(`{"paxtern":["a"]}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field status %d", resp2.StatusCode)
	}
}

func TestIngestValidation(t *testing.T) {
	srv, _ := newServer(t)
	resp, _ := post(t, srv.URL+"/ingest", IngestRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty ingest status %d", resp.StatusCode)
	}
}

func TestExploreInsertEndpoint(t *testing.T) {
	srv, _ := newServer(t)
	ingestSample(t, srv.URL)
	pos := 1
	resp, out := post(t, srv.URL+"/explore", ExploreRequest{
		Pattern: []string{"a", "c"}, ExploreOptions: seqlog.ExploreOptions{Mode: "accurate", Position: &pos},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	var props []seqlog.Proposal
	json.Unmarshal(out["proposals"], &props)
	if len(props) != 1 || props[0].Activity != "b" {
		t.Fatalf("insert proposals = %v", props)
	}
	bad := 7
	resp, _ = post(t, srv.URL+"/explore", ExploreRequest{Pattern: []string{"a", "c"}, ExploreOptions: seqlog.ExploreOptions{Position: &bad}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad position status %d", resp.StatusCode)
	}
}

func TestDetectWithinEndpoint(t *testing.T) {
	srv, _ := newServer(t)
	resp, _ := post(t, srv.URL+"/ingest", IngestRequest{Events: []seqlog.Event{
		{Trace: 1, Activity: "a", Time: 1}, {Trace: 1, Activity: "b", Time: 5},
		{Trace: 2, Activity: "a", Time: 1}, {Trace: 2, Activity: "b", Time: 9000},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	resp, out := post(t, srv.URL+"/detect", DetectRequest{Pattern: []string{"a", "b"}, DetectOptions: seqlog.DetectOptions{Within: 100}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var matches []seqlog.Match
	json.Unmarshal(out["matches"], &matches)
	if len(matches) != 1 || matches[0].Trace != 1 {
		t.Fatalf("windowed matches = %v", matches)
	}
}

func TestStatsAllPairsEndpoint(t *testing.T) {
	srv, _ := newServer(t)
	ingestSample(t, srv.URL)
	resp, out := post(t, srv.URL+"/stats", StatsRequest{Pattern: []string{"a", "b", "c"}, StatsOptions: seqlog.StatsOptions{AllPairs: true}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var pairsJSON []seqlog.PairStats
	json.Unmarshal(out["Pairs"], &pairsJSON)
	if len(pairsJSON) != 3 {
		t.Fatalf("all-pairs stats = %v", pairsJSON)
	}
}

func TestInfoAndTraceEndpoints(t *testing.T) {
	srv, _ := newServer(t)
	ingestSample(t, srv.URL)

	// Query twice so the postings cache records a miss then a hit, both
	// of which /info must surface.
	for i := 0; i < 2; i++ {
		if resp, _ := post(t, srv.URL+"/detect", DetectRequest{Pattern: []string{"a", "b"}}); resp.StatusCode != http.StatusOK {
			t.Fatalf("detect warmup status %d", resp.StatusCode)
		}
	}

	resp, err := http.Get(srv.URL + "/info")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("info: %v %v", resp, err)
	}
	var info seqlog.IndexInfo
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if info.Traces != 2 || info.Activities != 3 || info.Policy != "STNM" {
		t.Fatalf("info = %+v", info)
	}
	if info.Partitions[""] == 0 {
		t.Fatalf("default partition missing: %+v", info)
	}
	if info.Cache.Hits == 0 || info.Cache.Misses == 0 {
		t.Fatalf("cache counters missing from /info: %+v", info.Cache)
	}

	resp, err = http.Get(srv.URL + "/trace/1")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: %v %v", resp, err)
	}
	var tr struct {
		Trace  int64          `json:"trace"`
		Events []seqlog.Event `json:"events"`
	}
	json.NewDecoder(resp.Body).Decode(&tr)
	resp.Body.Close()
	if tr.Trace != 1 || len(tr.Events) != 3 || tr.Events[0].Activity != "a" {
		t.Fatalf("trace body = %+v", tr)
	}

	resp, err = http.Get(srv.URL + "/trace/999")
	if err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing trace: %v %v", resp, err)
	}
	resp.Body.Close()
	resp, err = http.Get(srv.URL + "/trace/notanumber")
	if err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id: %v %v", resp, err)
	}
	resp.Body.Close()
}
