package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"seqlog"
	"seqlog/internal/httpclient"
)

func ndjson(lines ...string) string { return strings.Join(lines, "\n") + "\n" }

func streamBody() string {
	return ndjson(
		`{"Trace":1,"Activity":"search","Time":1}`,
		`{"Trace":1,"Activity":"view","Time":2}`,
		`{"Trace":2,"Activity":"search","Time":3}`,
		``,
		`{"Trace":1,"Activity":"cart","Time":4}`,
		`{"Trace":2,"Activity":"view","Time":5}`,
		`{"Trace":2,"Activity":"cart","Time":6}`,
	)
}

func TestIngestStream(t *testing.T) {
	srv, eng := newServer(t)
	c := &httpclient.Client{}
	var out StreamResponse
	if err := c.Post(srv.URL+"/ingest/stream", "application/x-ndjson",
		strings.NewReader(streamBody()), &out); err != nil {
		t.Fatal(err)
	}
	if out.Accepted != 6 {
		t.Fatalf("accepted = %d, want 6", out.Accepted)
	}
	if out.Stats == nil || out.Stats.Flushed != 6 || out.Stats.Syncs != out.Stats.Batches {
		t.Fatalf("stats = %+v (6 flushed, one group commit per batch)", out.Stats)
	}

	// The streamed events are queryable, equivalently to serial ingestion.
	ms, err := eng.Detect(context.Background(), []string{"search", "view", "cart"}, seqlog.DetectOptions{})
	ids := seqlog.Traces(ms)
	if err != nil || len(ids) != 2 {
		t.Fatalf("traces = %v %v", ids, err)
	}

	// /health now carries the pipeline counters.
	var health map[string]json.RawMessage
	if err := c.GetJSON(srv.URL+"/health", &health); err != nil {
		t.Fatal(err)
	}
	if _, ok := health["ingest"]; !ok {
		t.Fatalf("health lacks ingest stats: %v", health)
	}
}

func TestIngestStreamBadLine(t *testing.T) {
	srv, _ := newServer(t)
	body := ndjson(
		`{"Trace":1,"Activity":"a","Time":1}`,
		`{not json}`,
	)
	resp, err := http.Post(srv.URL+"/ingest/stream", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var out struct {
		Accepted int    `json:"accepted"`
		Error    string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Error == "" || !strings.Contains(out.Error, "line 2") {
		t.Fatalf("error = %q, want line number", out.Error)
	}
}

func TestIngestStreamTooLarge(t *testing.T) {
	eng, err := seqlog.Open(seqlog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewWith(eng, Options{MaxBodyBytes: 64}))
	t.Cleanup(func() { srv.Close(); eng.Close() })

	resp, err := http.Post(srv.URL+"/ingest/stream", "application/x-ndjson",
		strings.NewReader(streamBody()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

// TestIngestStreamClientDisconnect kills the client mid-NDJSON-stream: the
// handler must commit what it admitted, drain its appender (no leaked shard
// goroutines), and leave the engine able to serve later streams.
func TestIngestStreamClientDisconnect(t *testing.T) {
	srv, eng := newServer(t)
	baseline := runtime.NumGoroutine()

	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	for i := 0; i < 600; i++ {
		fmt.Fprintf(&body, `{"Trace":%d,"Activity":"burst","Time":%d}`+"\n", i%8, i)
	}
	// Announce far more bytes than will ever be sent: the abrupt close below
	// then surfaces to the handler as an unexpected-EOF mid-body, not as a
	// clean end of stream.
	fmt.Fprintf(conn, "POST /ingest/stream HTTP/1.1\r\nHost: x\r\nContent-Type: application/x-ndjson\r\nContent-Length: %d\r\n\r\n",
		body.Len()*1000)
	if _, err := conn.Write(body.Bytes()); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// The first 512-line chunk was admitted before the disconnect; the
	// handler must flush it even though nobody is listening for the reply.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := eng.IngestInfo(); st != nil && st.Flushed >= 512 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admitted events never flushed after disconnect: %+v", eng.IngestInfo())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n, err := eng.NumTraces(); err != nil || n < 8 {
		t.Fatalf("traces = %d %v, want the 8 disconnected traces committed", n, err)
	}

	// The engine is not wedged: a well-behaved stream right after works.
	c := &httpclient.Client{}
	var out StreamResponse
	if err := c.Post(srv.URL+"/ingest/stream", "application/x-ndjson",
		strings.NewReader(streamBody()), &out); err != nil {
		t.Fatalf("stream after disconnect: %v", err)
	}
	if out.Accepted != 6 {
		t.Fatalf("accepted = %d, want 6", out.Accepted)
	}

	// The dead request's pipeline goroutines wound down.
	for {
		if runtime.NumGoroutine() <= baseline+10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d baseline", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestIngestStreamPartialOrderTieAcrossChunk: under partial order a tie
// group straddling the 512-row chunk boundary stays in one Append, so a
// time-ordered body is accepted whole; a row that does reach back into its
// trace is a 400 reporting the rows accepted before it.
func TestIngestStreamPartialOrderTieAcrossChunk(t *testing.T) {
	eng, err := seqlog.Open(seqlog.Config{PartialOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(eng))
	t.Cleanup(func() { srv.Close(); eng.Close() })

	var body bytes.Buffer
	for i := 0; i < 1000; i++ {
		ts := i
		if i >= streamChunkEvents-2 && i < streamChunkEvents+3 {
			ts = streamChunkEvents - 2 // rows 511-515 are one tie group
		}
		fmt.Fprintf(&body, `{"Trace":1,"Activity":"act%d","Time":%d}`+"\n", i%5, ts)
	}
	c := &httpclient.Client{}
	var out StreamResponse
	if err := c.Post(srv.URL+"/ingest/stream", "application/x-ndjson", &body, &out); err != nil {
		t.Fatalf("time-ordered partial-order body: %v", err)
	}
	if evs, _, err := eng.TraceEvents(1); out.Accepted != 1000 || err != nil || len(evs) != 1000 {
		t.Fatalf("accepted %d, stored %d events (%v), want 1000", out.Accepted, len(evs), err)
	}

	resp, err := http.Post(srv.URL+"/ingest/stream", "application/x-ndjson", strings.NewReader(ndjson(
		`{"Trace":2,"Activity":"a","Time":1}`,
		`{"Trace":1,"Activity":"a","Time":5}`,
	)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var refused struct {
		Accepted int    `json:"accepted"`
		Error    string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&refused); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || refused.Accepted != 0 || !strings.Contains(refused.Error, "reaches back") {
		t.Fatalf("reaching-back body: %d %+v", resp.StatusCode, refused)
	}
	if _, ok, _ := eng.TraceEvents(2); ok {
		t.Fatal("the refused chunk stored its other trace")
	}
}

// TestIngestStreamSequentialRequests: a trace may continue across requests;
// the second request resumes the trace's session from the stored prefix.
func TestIngestStreamSequentialRequests(t *testing.T) {
	srv, eng := newServer(t)
	c := &httpclient.Client{}
	first := ndjson(
		`{"Trace":7,"Activity":"a","Time":1}`,
		`{"Trace":7,"Activity":"b","Time":2}`,
	)
	second := ndjson(
		`{"Trace":7,"Activity":"a","Time":3}`,
		`{"Trace":7,"Activity":"b","Time":4}`,
	)
	var out StreamResponse
	if err := c.Post(srv.URL+"/ingest/stream", "application/x-ndjson", strings.NewReader(first), &out); err != nil {
		t.Fatal(err)
	}
	if err := c.Post(srv.URL+"/ingest/stream", "application/x-ndjson", strings.NewReader(second), &out); err != nil {
		t.Fatal(err)
	}
	// Exactly the (1,2) and (3,4) completions of (a,b) — a re-emitted
	// prefix occurrence in the second request would inflate the count.
	st, err := eng.Stats(context.Background(), []string{"a", "b"}, seqlog.StatsOptions{})
	if err != nil || st.MaxCompletions != 2 {
		t.Fatalf("cross-request continuation: stats = %+v %v, want 2 completions", st, err)
	}
	ms, err := eng.Detect(context.Background(), []string{"a", "b"}, seqlog.DetectOptions{})
	if err != nil || len(ms) == 0 {
		t.Fatalf("cross-request continuation: matches = %v %v", ms, err)
	}
}
