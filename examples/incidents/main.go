// Incidents: incremental daily indexing of a BPI-2013-style incident log.
//
// The paper's architecture is built around periodic batch updates: "new logs
// are appended ... the update procedure is called periodically" (§3.1.3),
// with the stored Seq boundary preventing duplicate pairs when a trace spans
// several batches, completed traces pruned from Seq, and the index
// partitioned per period. This example drives all of that against a durable
// on-disk engine: seven daily batches of incident events, one index
// partition per day, pruning of incidents closed the previous day, and a
// crash-safe reopen.
//
//	go run ./examples/incidents
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"seqlog"
)

// Incident lifecycle activities (the BPI 2013 Volvo IT log has exactly this
// flavour of status transitions).
var steps = []string{"open", "assign", "investigate", "escalate", "resolve", "close"}

type incident struct {
	id     int64
	step   int
	ts     int64
	closed bool
}

func main() {
	dir, err := os.MkdirTemp("", "seqlog-incidents-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	eng, err := seqlog.Open(seqlog.Config{Dir: filepath.Join(dir, "idx"), Policy: "STNM"})
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(13))
	var live []*incident
	nextID := int64(1)
	day := int64(24 * 3600 * 1000)

	for d := 1; d <= 7; d++ {
		// Each day: open new incidents, progress existing ones.
		if err := eng.RotatePeriod(fmt.Sprintf("day-%02d", d)); err != nil {
			log.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			live = append(live, &incident{id: nextID, ts: int64(d) * day})
			nextID++
		}
		var batch []seqlog.Event
		var closedToday []int64
		for _, inc := range live {
			if inc.closed {
				continue
			}
			// 1-3 lifecycle steps per incident per day.
			for s := 0; s < 1+rng.Intn(3) && inc.step < len(steps); s++ {
				inc.ts += 1000 + rng.Int63n(int64(3600*1000))
				batch = append(batch, seqlog.Event{Trace: inc.id, Activity: steps[inc.step], Time: inc.ts})
				// Occasionally bounce back to investigation after escalating.
				if steps[inc.step] == "escalate" && rng.Float64() < 0.3 {
					inc.step = 2
				} else {
					inc.step++
				}
			}
			if inc.step == len(steps) {
				inc.closed = true
				closedToday = append(closedToday, inc.id)
			}
		}
		st, err := eng.Ingest(batch)
		if err != nil {
			log.Fatal(err)
		}
		// Completed traces leave the mutable tables; their history stays
		// in the inverted index.
		if err := eng.PruneTraces(closedToday); err != nil {
			log.Fatal(err)
		}
		open, _ := eng.NumTraces()
		fmt.Printf("day %d: ingested %4d events, closed %3d incidents, %4d still open\n",
			d, st.Events, len(closedToday), open)
	}

	// Simulate a process restart: everything must come back from disk.
	if err := eng.Close(); err != nil {
		log.Fatal(err)
	}
	eng, err = seqlog.Open(seqlog.Config{Dir: filepath.Join(dir, "idx"), Policy: "STNM"})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	fmt.Println("\nreopened index from disk")

	periods, _ := eng.Periods()
	fmt.Printf("index partitions: %v\n\n", periods)

	// How many incidents ever escalated and were still resolved?
	ctx := context.Background()
	ms, err := eng.Detect(ctx, []string{"escalate", "resolve", "close"}, seqlog.DetectOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("incidents that escalated but still closed: %d\n", len(seqlog.Traces(ms)))

	// Mean time from open to close, estimated from pairwise statistics
	// without touching a single trace.
	stats, err := eng.Stats(ctx, []string{"open", "assign", "investigate", "resolve", "close"}, seqlog.StatsOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("happy-path completions bound: %d, estimated duration: %.1f hours\n",
		stats.MaxCompletions, stats.EstimatedDuration/3600000)

	// What usually follows an escalation?
	props, err := eng.Explore(ctx, []string{"escalate"}, seqlog.ExploreOptions{Mode: seqlog.Accurate})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("after an escalation, the next step is typically:")
	for i, p := range props {
		if i >= 3 {
			break
		}
		fmt.Printf("  %-12s (%d completions, avg %.1f min later)\n",
			p.Activity, p.Completions, p.AvgDuration/60000)
	}
}
