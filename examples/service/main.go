// Service: the full client/server architecture of Figure 1 in one process —
// a query-processor HTTP service over an engine, driven by an HTTP client
// that ingests a log and runs every endpoint.
//
//	go run ./examples/service
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"

	"seqlog"
	"seqlog/internal/server"
)

func post(base, path string, body any, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("%s: %s (%d)", path, e.Error, resp.StatusCode)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

func main() {
	eng, err := seqlog.Open(seqlog.Config{Policy: "STNM"})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// Serve on an ephemeral port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: server.New(eng)}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Println("query processor listening on", base)

	// Ingest a small deployment-pipeline log over HTTP.
	var events []seqlog.Event
	stagesByTrace := [][]string{
		{"commit", "build", "test", "deploy"},
		{"commit", "build", "test", "rollback"},
		{"commit", "build", "build", "test", "deploy"},
		{"commit", "test", "deploy"},
	}
	for t, stages := range stagesByTrace {
		ts := int64(0)
		for _, s := range stages {
			ts += 60000
			events = append(events, seqlog.Event{Trace: int64(t + 1), Activity: s, Time: ts})
		}
	}
	var ingest seqlog.UpdateStats
	if err := post(base, "/ingest", server.IngestRequest{Events: events}, &ingest); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d events over HTTP\n\n", ingest.Events)

	// Detection over HTTP.
	var det server.DetectResponse
	if err := post(base, "/detect", server.DetectRequest{Pattern: []string{"build", "deploy"}}, &det); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipelines where a build eventually deployed: %d matches\n", len(det.Matches))
	for _, m := range det.Matches {
		fmt.Printf("  trace %d at %v\n", m.Trace, m.Times)
	}

	// Statistics over HTTP.
	var stats seqlog.PatternStats
	if err := post(base, "/stats", server.StatsRequest{Pattern: []string{"commit", "build", "test"}}, &stats); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncommit->build->test: at most %d completions, est %.0fs\n",
		stats.MaxCompletions, stats.EstimatedDuration/1000)

	// Continuation over HTTP.
	var explore struct {
		Proposals []seqlog.Proposal `json:"proposals"`
	}
	if err := post(base, "/explore", server.ExploreRequest{Pattern: []string{"test"},
		ExploreOptions: seqlog.ExploreOptions{Mode: seqlog.Accurate}}, &explore); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwhat follows a test stage:")
	for _, p := range explore.Proposals {
		fmt.Printf("  %-10s completions=%d score=%.4f\n", p.Activity, p.Completions, p.Score)
	}
}
