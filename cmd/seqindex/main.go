// Command seqindex builds or incrementally updates a sequence-detection
// index from log files — the pre-processing component of the paper run as a
// batch job (e.g. from cron, once per period).
//
// Usage:
//
//	seqindex -dir ./idx [-policy SC] [-period 2026-07] log.xes [more.csv ...]
//
// Input format is inferred from the extension (.xes or .csv). Each file is
// one batch: it goes through the engine's ingestion pipeline (trace-affinity
// workers) and commits as one group per store. At the end the store
// compacts, folding its postings into a segment first.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"seqlog"
	"seqlog/cmd/internal/cliflag"
)

func main() {
	f := cliflag.New(flag.CommandLine)
	f.Store("dir", "shard-dir", "shards", "policy", "partial", "segments")
	f.Ingest()
	flag.StringVar(&f.Config.Period, "period", "", "index partition for this batch")
	flag.Parse()
	if f.Config.Dir == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: seqindex -dir DIR [flags] LOGFILE...")
		flag.PrintDefaults()
		os.Exit(2)
	}

	eng, err := seqlog.Open(f.Config)
	if err != nil {
		fatal(err)
	}
	defer eng.Close()

	for _, path := range flag.Args() {
		in, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		var st seqlog.UpdateStats
		switch strings.ToLower(filepath.Ext(path)) {
		case ".xes", ".xml":
			st, err = eng.IngestXES(in)
		case ".csv":
			st, err = eng.IngestCSV(in)
		default:
			err = fmt.Errorf("seqindex: unknown log format %q (want .xes or .csv)", path)
		}
		in.Close()
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
