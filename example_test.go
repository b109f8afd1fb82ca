package seqlog_test

import (
	"context"
	"fmt"
	"log"

	"seqlog"
)

func openWithSessions() *seqlog.Engine {
	eng, err := seqlog.Open(seqlog.Config{Policy: "STNM"})
	if err != nil {
		log.Fatal(err)
	}
	_, err = eng.Ingest([]seqlog.Event{
		{Trace: 1, Activity: "search", Time: 1}, {Trace: 1, Activity: "view", Time: 2},
		{Trace: 1, Activity: "buy", Time: 3},
		{Trace: 2, Activity: "search", Time: 1}, {Trace: 2, Activity: "exit", Time: 2},
		{Trace: 3, Activity: "search", Time: 1}, {Trace: 3, Activity: "view", Time: 2},
		{Trace: 3, Activity: "view", Time: 3}, {Trace: 3, Activity: "buy", Time: 9},
	})
	if err != nil {
		log.Fatal(err)
	}
	return eng
}

// Detect returns every completion of a pattern, skipping irrelevant events
// in between (skip-till-next-match).
func ExampleEngine_Detect() {
	eng := openWithSessions()
	defer eng.Close()

	matches, err := eng.Detect(context.Background(), []string{"search", "buy"}, seqlog.DetectOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range matches {
		fmt.Printf("trace %d: search@%d buy@%d\n", m.Trace, m.Times[0], m.Times[1])
	}
	// Output:
	// trace 1: search@1 buy@3
	// trace 3: search@1 buy@9
}

// Stats answers from precomputed pair statistics without touching traces.
func ExampleEngine_Stats() {
	eng := openWithSessions()
	defer eng.Close()

	st, err := eng.Stats(context.Background(), []string{"search", "view", "buy"}, seqlog.StatsOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range st.Pairs {
		fmt.Printf("%s->%s completions=%d\n", p.First, p.Second, p.Completions)
	}
	fmt.Printf("pattern bound=%d\n", st.MaxCompletions)
	// Output:
	// search->view completions=2
	// view->buy completions=2
	// pattern bound=2
}

// Explore ranks likely continuations of a pattern by Equation 1 of the
// paper (completions over average duration).
func ExampleEngine_Explore() {
	eng := openWithSessions()
	defer eng.Close()

	props, err := eng.Explore(context.Background(), []string{"search"}, seqlog.ExploreOptions{Mode: seqlog.Accurate})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range props {
		fmt.Printf("%s (%d completions)\n", p.Activity, p.Completions)
	}
	// Output:
	// view (2 completions)
	// exit (1 completions)
	// buy (2 completions)
}

// Explore with a Position completes a pattern at an arbitrary place — here:
// what typically happens between a search and a purchase?
func ExampleEngine_Explore_insert() {
	eng := openWithSessions()
	defer eng.Close()

	between := 1
	props, err := eng.Explore(context.Background(), []string{"search", "buy"},
		seqlog.ExploreOptions{Mode: seqlog.Accurate, Position: &between})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range props {
		fmt.Printf("search -> %s -> buy (%d completions)\n", p.Activity, p.Completions)
	}
	// Output:
	// search -> view -> buy (2 completions)
}
