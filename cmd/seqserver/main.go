// Command seqserver serves the query-processor HTTP API over an index — the
// deployment shape of the paper's architecture (Figure 1): a pre-processing
// path (seqindex, POST /ingest or /ingest/stream, all through the engine's
// ingestion pipeline) and an online query path.
//
// On SIGINT/SIGTERM the server stops accepting connections, drains in-flight
// requests (bounded by -shutdown-timeout), then syncs and closes the store —
// acknowledged ingests are never lost to a graceful shutdown.
//
// Usage:
//
//	seqserver -dir ./idx -addr :8080 [-policy SC]
//	seqserver -dir ./replica -addr :8081 -follow http://primary:8080
//
// With -follow the server opens read-only and replicates the primary's
// write-ahead log into its own store (see DESIGN.md §12); writes answer 403
// and GET /health/ready reports 503 while catching up, so a router or load
// balancer can drain it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"seqlog"
	"seqlog/cmd/internal/cliflag"
	"seqlog/internal/replica"
	"seqlog/internal/server"
)

func main() {
	f := cliflag.New(flag.CommandLine)
	f.Store("dir", "shard-dir", "shards", "policy", "partial", "segments", "salvage", "cache-mb")
	f.Ingest()
	f.Limits()
	cfg, opts := &f.Config, &f.Server
	addr := flag.String("addr", ":8080", "listen address")
	flag.Var((*cliflag.List)(&cfg.ShardAddrs), "shard-addrs", "comma-separated seqshard server `addresses`; the engine runs over remote stores instead of -dir (excludes -dir/-shard-dir/-follow)")
	flag.Var((*cliflag.MiB)(&opts.MaxBodyBytes), "max-body-mb", "maximum request body size in `MiB` (0 disables the cap)")
	flag.DurationVar(&opts.ShutdownTimeout, "shutdown-timeout", opts.ShutdownTimeout, "graceful-shutdown drain window for in-flight requests")
	flag.BoolVar(&opts.PartialResults, "partial-results", false, "detect queries that trip the row budget return the matches found so far with \"truncated\":true instead of failing")
	follow := flag.String("follow", "", "primary base URL to replicate from (e.g. http://primary:8080); implies -read-only")
	flag.BoolVar(&cfg.ReadOnly, "read-only", false, "reject writes with 403 (set automatically by -follow)")
	flag.Var((*cliflag.MiB)(&opts.ReadyMaxLagBytes), "ready-max-lag-mb", "replication lag in `MiB` beyond which /health/ready answers 503 (0 = default 32, negative disables)")
	flag.DurationVar(&opts.ReadyMaxStale, "ready-max-stale", 0, "mark a follower not-ready when the primary has been unreachable this long (0 disables)")
	flag.BoolVar(&opts.Pprof, "pprof", false, "mount the runtime profiler under GET /debug/pprof/")
	flag.Var((*cliflag.Millis)(&cfg.SlowQueryThreshold), "slow-query-ms", "log queries slower than this many `ms` to stderr (0 disables)")
	flag.Parse()
	if err := run(*cfg, *opts, *addr, *follow); err != nil {
		fmt.Fprintln(os.Stderr, "seqserver:", err)
		os.Exit(1)
	}
}

func run(cfg seqlog.Config, opts server.Options, addr, follow string) error {
	if follow != "" {
		switch {
		case len(cfg.ShardAddrs) > 0:
			return errors.New("-shard-addrs and -follow are mutually exclusive")
		case cfg.Dir == "":
			return errors.New("-follow requires -dir (the replica's own durable store)")
		case cfg.Shards > 1:
			return errors.New("-follow supports single-store engines only (drop -shards)")
		}
		cfg.ReadOnly = true
	}
	eng, err := seqlog.Open(cfg)
	if err != nil {
		return err
	}
	if rec := eng.Recovery(); rec.Degraded() {
		log.Printf("WARNING: store salvaged at startup: %d corrupt regions (%d bytes) quarantined; /health reports degraded",
			rec.DroppedRegions, rec.DroppedBytes)
	}
	if follow != "" {
		if err := eng.StartFollower(follow, replica.Options{}); err != nil {
			eng.Close()
			return err
		}
		log.Printf("seqserver replicating from %s (read-only)", follow)
	}
	return server.ServeEngine("seqserver", eng, opts, addr)
}
