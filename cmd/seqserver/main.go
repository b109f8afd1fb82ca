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
//	seqserver -dir ./idx -addr :8080 [-policy STNM]
//	seqserver -dir ./replica -addr :8081 -follow http://primary:8080
//
// With -follow the server opens read-only and replicates the primary's
// write-ahead log into its own store (see DESIGN.md §12); writes answer 403
// and GET /health/ready reports 503 while catching up, so a router or load
// balancer can drain it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"seqlog"
	"seqlog/internal/replica"
	"seqlog/internal/server"
)

func main() {
	var (
		dir     = flag.String("dir", "", "index directory (empty = in-memory)")
		addr    = flag.String("addr", ":8080", "listen address")
		policy  = flag.String("policy", "STNM", "pair policy: SC or STNM")
		partial = flag.Bool("partial", false, "treat same-timestamp events as concurrent (partial order)")
		planner = flag.Bool("planner", false, "use the selectivity-based join planner")
		cacheMB = flag.Int("cache-mb", 0, "decoded-postings cache budget in MiB (0 = default 64, negative disables)")
		workers = flag.Int("query-workers", 0, "continuation-query fan-out (0 = all cores, 1 = serial)")
		salvage = flag.Bool("salvage", false, "recover a corrupt store by quarantining unreadable regions instead of failing")

		shards     = flag.Int("shards", 0, "split the index across N independent stores (0/1 = single store; pinned at creation)")
		shardDir   = flag.String("shard-dir", "", "base directory for shard-NNNN stores (default: -dir)")
		shardAddrs = flag.String("shard-addrs", "", "comma-separated seqshard server addresses; the engine runs over remote stores instead of -dir (excludes -dir/-shard-dir/-segments/-follow)")
		segments   = flag.Bool("segments", false, "compact postings into immutable block-compressed segment files (requires -dir)")

		ingestWorkers = flag.Int("ingest-workers", 0, "ingestion shard workers for /ingest and /ingest/stream (0 = all cores)")
		flushEvents   = flag.Int("flush-events", 0, "ingestion flush threshold in events (0 = default 1024)")
		flushInterval = flag.Duration("flush-interval", 0, "ingestion flush age bound (0 = default 50ms)")
		flushInflight = flag.Int("flush-inflight", 0, "ingestion flush cycles allowed past extraction at once (1 = serial commits, 0 = default 2: extraction overlaps fsync)")
		flushQueue    = flag.Int("flush-queue", 0, "ingestion admission queue in events (0 = default 4x flush-events)")

		reqTimeout   = flag.Duration("request-timeout", 30*time.Second, "per-request handling timeout (0 disables)")
		maxBodyMB    = flag.Int("max-body-mb", 64, "maximum request body size in MiB (0 disables the cap)")
		drainTimeout = flag.Duration("shutdown-timeout", 15*time.Second, "graceful-shutdown drain window for in-flight requests")

		queryTimeoutMS  = flag.Int("query-timeout-ms", 0, "per-query deadline in milliseconds; the query is aborted cooperatively, not abandoned (0 disables; requests may only tighten it)")
		queryBudgetRows = flag.Int64("query-budget-rows", 0, "per-query row budget; exceeding it fails the query with 503 (0 disables; requests may only tighten it)")
		partialResults  = flag.Bool("partial-results", false, "detect queries that trip the row budget return the matches found so far with \"truncated\":true instead of failing")

		follow     = flag.String("follow", "", "primary base URL to replicate from (e.g. http://primary:8080); implies -read-only")
		readOnly   = flag.Bool("read-only", false, "reject writes with 403 (set automatically by -follow)")
		readyLagMB = flag.Int64("ready-max-lag-mb", 0, "replication lag beyond which /health/ready answers 503 (0 = default 32, negative disables)")
		readyStale = flag.Duration("ready-max-stale", 0, "mark a follower not-ready when the primary has been unreachable this long (0 disables)")

		metricsOn   = flag.Bool("metrics", true, "expose GET /metrics (Prometheus text format)")
		pprofOn     = flag.Bool("pprof", false, "mount the runtime profiler under GET /debug/pprof/")
		slowQueryMS = flag.Int("slow-query-ms", 0, "log queries slower than this many milliseconds to stderr (0 disables)")
	)
	flag.Parse()
	cfg := seqlog.Config{
		Dir: *dir, Policy: *policy,
		PartialOrder: *partial, Planner: *planner,
		CacheBytes: cacheBytes(*cacheMB), QueryWorkers: *workers,
		Salvage:        *salvage,
		Shards:         *shards,
		ShardDir:       *shardDir,
		Segments:       *segments,
		Workers:        *ingestWorkers,
		FlushEvents:    *flushEvents,
		FlushInterval:  *flushInterval,
		IngestInflight: *flushInflight,
		IngestQueue:    *flushQueue,
	}
	if *slowQueryMS > 0 {
		cfg.SlowQueryThreshold = time.Duration(*slowQueryMS) * time.Millisecond
	}
	if *shardAddrs != "" {
		for _, a := range strings.Split(*shardAddrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cfg.ShardAddrs = append(cfg.ShardAddrs, a)
			}
		}
		if *follow != "" {
			fmt.Fprintln(os.Stderr, "seqserver: -shard-addrs and -follow are mutually exclusive")
			os.Exit(2)
		}
	}
	if *follow != "" {
		*readOnly = true
		if *dir == "" {
			fmt.Fprintln(os.Stderr, "seqserver: -follow requires -dir (the replica's own durable store)")
			os.Exit(2)
		}
		if *shards > 1 {
			fmt.Fprintln(os.Stderr, "seqserver: -follow supports single-store engines only (drop -shards)")
			os.Exit(2)
		}
	}
	cfg.ReadOnly = *readOnly
	opts := server.Options{
		Pprof:                  *pprofOn,
		DisableMetricsEndpoint: !*metricsOn,
		QueryTimeout:           time.Duration(*queryTimeoutMS) * time.Millisecond,
		QueryBudgetRows:        *queryBudgetRows,
		PartialResults:         *partialResults,
		ReadyMaxLagBytes:       lagBytes(*readyLagMB),
		ReadyMaxStale:          *readyStale,
	}
	if err := run(cfg, opts, *addr, *follow, *reqTimeout, *maxBodyMB, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "seqserver:", err)
		os.Exit(1)
	}
}

func run(cfg seqlog.Config, opts server.Options, addr, follow string, reqTimeout time.Duration, maxBodyMB int, drainTimeout time.Duration) error {
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

	opts.RequestTimeout = reqTimeout
	opts.MaxBodyBytes = int64(maxBodyMB) << 20
	handler := server.NewWith(eng, opts)
	srv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() {
		log.Printf("seqserver listening on %s (dir=%q policy=%s)", addr, cfg.Dir, cfg.Policy)
		serveErr <- srv.ListenAndServe()
	}()

	select {
	case err := <-serveErr:
		eng.Close()
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	log.Printf("seqserver shutting down: draining in-flight requests (up to %s)", drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("seqserver: drain incomplete: %v", err)
	}

	// Every acknowledged ingest already hit the WAL with an fsync; this final
	// sync+close covers anything in flight at the cutoff and folds the WAL
	// cleanly for the next start.
	if err := eng.Sync(); err != nil {
		eng.Close()
		return fmt.Errorf("final sync: %w", err)
	}
	if err := eng.Close(); err != nil {
		return fmt.Errorf("close store: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("seqserver stopped cleanly")
	return nil
}

// cacheBytes maps the -cache-mb flag onto Config.CacheBytes semantics.
func cacheBytes(mb int) int64 {
	if mb < 0 {
		return -1
	}
	return int64(mb) << 20
}

// lagBytes maps -ready-max-lag-mb onto Options.ReadyMaxLagBytes semantics.
func lagBytes(mb int64) int64 {
	if mb < 0 {
		return -1
	}
	return mb << 20
}
