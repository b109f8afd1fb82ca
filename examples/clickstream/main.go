// Clickstream: next-action prediction over a large synthetic web log.
//
// The intro of the paper motivates detecting patterns like "a search
// immediately followed by adding the product to the cart" (strict
// contiguity) and "three searches with no purchase" (skip till next match).
// This example generates 20,000 sessions from a behavioural funnel, indexes
// them, and contrasts the three continuation strategies — Accurate, Fast and
// Hybrid — on response time and agreement, exactly the trade-off of §3.2.2.
//
//	go run ./examples/clickstream
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"seqlog"
)

// funnel is a tiny behavioural model: each action has weighted successors.
var funnel = map[string][]string{
	"landing":     {"search", "search", "browse", "exit"},
	"search":      {"view", "view", "view", "search", "exit"},
	"browse":      {"view", "browse", "exit"},
	"view":        {"add-to-cart", "view", "search", "exit"},
	"add-to-cart": {"checkout", "view", "exit"},
	"checkout":    {"pay", "exit"},
	"pay":         {},
	"exit":        {},
}

func simulateSessions(n int, seed int64) []seqlog.Event {
	rng := rand.New(rand.NewSource(seed))
	var events []seqlog.Event
	for s := 1; s <= n; s++ {
		ts := int64(0)
		action := "landing"
		for step := 0; step < 40; step++ {
			events = append(events, seqlog.Event{Trace: int64(s), Activity: action, Time: ts})
			next := funnel[action]
			if len(next) == 0 {
				break
			}
			action = next[rng.Intn(len(next))]
			ts += 200 + rng.Int63n(5000)
		}
	}
	return events
}

func main() {
	eng, err := seqlog.Open(seqlog.Config{Policy: "STNM"})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	events := simulateSessions(20000, 7)
	start := time.Now()
	st, err := eng.Ingest(events)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d events / %d sessions in %v\n\n",
		st.Events, st.Traces, time.Since(start).Round(time.Millisecond))

	// How often does a search eventually lead to payment in one session?
	ctx := context.Background()
	paying, err := eng.Detect(ctx, []string{"search", "pay"}, seqlog.DetectOptions{})
	if err != nil {
		log.Fatal(err)
	}
	searching, err := eng.Detect(ctx, []string{"landing", "search"}, seqlog.DetectOptions{})
	if err != nil {
		log.Fatal(err)
	}
	nPaying, nSearching := len(seqlog.Traces(paying)), len(seqlog.Traces(searching))
	fmt.Printf("sessions searching: %d; of those reaching payment: %d (%.1f%%)\n\n",
		nSearching, nPaying, 100*float64(nPaying)/float64(nSearching))

	// Predict the next action after search -> view -> add-to-cart with
	// all three strategies and compare cost vs agreement.
	pattern := []string{"search", "view", "add-to-cart"}
	type run struct {
		opts  seqlog.ExploreOptions
		props []seqlog.Proposal
		took  time.Duration
	}
	runs := []run{
		{opts: seqlog.ExploreOptions{Mode: seqlog.Accurate}},
		{opts: seqlog.ExploreOptions{Mode: seqlog.Fast}},
		{opts: seqlog.ExploreOptions{Mode: seqlog.Hybrid, TopK: 2}},
	}
	for i := range runs {
		t0 := time.Now()
		runs[i].props, err = eng.Explore(ctx, pattern, runs[i].opts)
		if err != nil {
			log.Fatal(err)
		}
		runs[i].took = time.Since(t0)
	}

	fmt.Printf("next-action prediction after %v:\n", pattern)
	for _, r := range runs {
		fmt.Printf("  %-8s (%8v):", r.opts.Mode, r.took.Round(time.Microsecond))
		for i, p := range r.props {
			if i >= 3 {
				break
			}
			fmt.Printf("  %s(score %.4f)", p.Activity, p.Score)
		}
		fmt.Println()
	}
	fmt.Println("\nAccurate verifies every candidate with a full detection;")
	fmt.Println("Fast reads only precomputed statistics; Hybrid re-checks the top-K.")
}
