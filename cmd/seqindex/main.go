// Command seqindex builds or incrementally updates a sequence-detection
// index from log files — the pre-processing component of the paper run as a
// batch job (e.g. from cron, once per period).
//
// Usage:
//
//	seqindex -dir ./idx -policy STNM [-period 2026-07] log.xes [more.csv ...]
//
// Input format is inferred from the extension (.xes or .csv). Each file is
// one batch: it goes through the engine's ingestion pipeline (trace-affinity
// workers) and commits as one group per store.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"seqlog"
)

func main() {
	var (
		dir     = flag.String("dir", "", "index directory (required; created if absent)")
		policy  = flag.String("policy", "STNM", "pair policy: SC or STNM")
		period  = flag.String("period", "", "index partition for this batch")
		workers = flag.Int("workers", 0, "ingestion shard workers (0 = all cores)")
		partial = flag.Bool("partial", false, "treat same-timestamp events as concurrent (partial order; STNM only)")

		shards   = flag.Int("shards", 0, "split the index across N independent stores (0/1 = single store; pinned at creation)")
		shardDir = flag.String("shard-dir", "", "base directory for shard-NNNN stores (default: -dir)")
		segments = flag.Bool("segments", false, "compact postings into immutable block-compressed segment files (requires -dir)")

		flushEvents   = flag.Int("flush-events", 0, "ingestion flush threshold in events (0 = default 1024)")
		flushInterval = flag.Duration("flush-interval", 0, "ingestion flush age bound (0 = default 50ms)")
		flushInflight = flag.Int("flush-inflight", 0, "ingestion flush cycles allowed past extraction at once (1 = serial commits, 0 = default 2: extraction overlaps fsync)")
		flushQueue    = flag.Int("flush-queue", 0, "ingestion admission queue in events (0 = default 4x flush-events)")
	)
	flag.Parse()
	if *dir == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: seqindex -dir DIR [flags] LOGFILE...")
		flag.PrintDefaults()
		os.Exit(2)
	}

	eng, err := seqlog.Open(seqlog.Config{
		Policy: *policy, Workers: *workers, Dir: *dir, Period: *period,
		PartialOrder: *partial,
		Shards:       *shards, ShardDir: *shardDir, Segments: *segments,
		FlushEvents: *flushEvents, FlushInterval: *flushInterval,
		IngestInflight: *flushInflight, IngestQueue: *flushQueue,
	})
	if err != nil {
		fatal(err)
	}
	defer eng.Close()

	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		var st seqlog.UpdateStats
		switch strings.ToLower(filepath.Ext(path)) {
		case ".xes", ".xml":
			st, err = eng.IngestXES(f)
		case ".csv":
			st, err = eng.IngestCSV(f)
		default:
			err = fmt.Errorf("seqindex: unknown log format %q (want .xes or .csv)", path)
		}
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %d events in %d traces (%.3fs)\n", path, st.Events, st.Traces, time.Since(start).Seconds())
	}
	if err := eng.Compact(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "seqindex:", err)
	os.Exit(1)
}
