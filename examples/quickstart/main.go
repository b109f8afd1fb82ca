// Quickstart: index a handful of shopping sessions in memory, then run the
// three query families of the paper — detection, statistics, continuation.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"seqlog"
)

func main() {
	// An engine with the default configuration: in-memory store,
	// skip-till-next-match policy, Indexing extraction flavor.
	eng, err := seqlog.Open(seqlog.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// Five user sessions. Timestamps are milliseconds; any monotone
	// clock works.
	events := []seqlog.Event{
		{Trace: 1, Activity: "search", Time: 0}, {Trace: 1, Activity: "view", Time: 1200},
		{Trace: 1, Activity: "add-to-cart", Time: 4000}, {Trace: 1, Activity: "checkout", Time: 9000},
		{Trace: 2, Activity: "search", Time: 0}, {Trace: 2, Activity: "view", Time: 800},
		{Trace: 2, Activity: "exit", Time: 2000},
		{Trace: 3, Activity: "search", Time: 0}, {Trace: 3, Activity: "search", Time: 3000},
		{Trace: 3, Activity: "view", Time: 4000}, {Trace: 3, Activity: "add-to-cart", Time: 4500},
		{Trace: 3, Activity: "checkout", Time: 20000},
		{Trace: 4, Activity: "view", Time: 0}, {Trace: 4, Activity: "add-to-cart", Time: 500},
		{Trace: 4, Activity: "exit", Time: 1500},
		{Trace: 5, Activity: "search", Time: 0}, {Trace: 5, Activity: "view", Time: 100},
		{Trace: 5, Activity: "view", Time: 900}, {Trace: 5, Activity: "add-to-cart", Time: 1400},
	}
	st, err := eng.Ingest(events)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d events in %d traces\n\n", st.Events, st.Traces)

	// Each query family is one call: a pattern plus its options struct.
	ctx := context.Background()

	// Pattern detection (STNM): which sessions searched, then viewed,
	// then eventually checked out — regardless of what happened between?
	pattern := []string{"search", "view", "checkout"}
	matches, err := eng.Detect(ctx, pattern, seqlog.DetectOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sessions matching %v:\n", pattern)
	for _, m := range matches {
		fmt.Printf("  session %d, matched at %v (took %dms)\n",
			m.Trace, m.Times, m.Times[len(m.Times)-1]-m.Times[0])
	}

	// Statistics: cheap pairwise figures with pattern-level bounds.
	stats, err := eng.Stats(ctx, pattern, seqlog.StatsOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npairwise statistics for %v:\n", pattern)
	for _, ps := range stats.Pairs {
		fmt.Printf("  %s -> %s: %d completions, avg %.0fms\n",
			ps.First, ps.Second, ps.Completions, ps.AvgDuration)
	}
	fmt.Printf("  whole pattern: at most %d completions, est. duration %.0fms\n",
		stats.MaxCompletions, stats.EstimatedDuration)

	// Continuation: what typically happens after search -> view?
	props, err := eng.Explore(ctx, []string{"search", "view"}, seqlog.ExploreOptions{Mode: seqlog.Hybrid, TopK: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlikely continuations of search -> view:\n")
	for _, p := range props {
		fmt.Printf("  %-12s score=%.4f (completions=%d, avg gap %.0fms)\n",
			p.Activity, p.Score, p.Completions, p.AvgDuration)
	}
}
