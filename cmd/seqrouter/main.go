// Command seqrouter is the query coordinator of a replicated seqlog fleet:
// one writable primary plus any number of read replicas started with
// `seqserver -follow`. It probes every backend's GET /health/ready on an
// interval, balances read traffic round-robin across caught-up replicas
// (falling back to the primary), pins writes (/ingest, /ingest/stream,
// /prune, /periods/rotate) to the primary, and fails a read over to the next
// backend when a replica goes dark or answers overloaded (502/503/504).
//
// Usage:
//
//	seqrouter -listen :8090 -primary http://localhost:8080 \
//	    -replica http://localhost:8081 -replica http://localhost:8082
//
// The router adds two endpoints of its own: GET /router/status (the probed
// backend table: role, readiness, replication lag) and GET /router/health.
// Every proxied response carries X-Seqrouter-Backend naming the backend that
// answered. GET /metrics serves the router's own registry, including
// seqrouter_backend_requests_total{backend,outcome}.
//
// With -shard-map FILE the router runs as a cross-shard query coordinator
// instead: the file is a static placement map, one seqshard address per line
// ('#' starts a comment), and the router opens a full query engine over
// those remote stores (netshard, DESIGN.md §13) and serves the ordinary
// seqserver HTTP API on -listen through seqserver's own serve path — the
// same body cap, drain window and final sync. The engine takes the policy
// the fleet pins. Scatter-gather across shards, cancellation, and
// sibling-abort follow the engine's usual contract; -primary/-replica are
// not used in this mode.
//
//	seqrouter -listen :8090 -shard-map shards.txt
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"seqlog"
	"seqlog/cmd/internal/cliflag"
	"seqlog/internal/metrics"
	"seqlog/internal/replica"
	"seqlog/internal/server"
)

func main() {
	f := cliflag.New(flag.CommandLine)
	f.Limits()
	var replicas cliflag.List
	var (
		listen   = flag.String("listen", ":8090", "router listen address")
		primary  = flag.String("primary", "", "primary seqserver base URL (required unless -shard-map)")
		probe    = flag.Duration("probe-interval", 2*time.Second, "backend readiness probe interval")
		maxLag   = cliflag.MiB(64 << 20)
		shardMap = flag.String("shard-map", "", "placement map file (one seqshard address per line); run as a cross-shard query coordinator instead of an HTTP balancer")
	)
	flag.Var(&maxLag, "max-lag-mb", "drain replicas reporting more replication lag than this many `MiB` (negative disables)")
	flag.Var(&replicas, "replica", "read replica base `URL` (repeatable, or comma-separated)")
	flag.Parse()
	var err error
	switch {
	case *shardMap != "":
		err = runCoordinator(f, *listen, *shardMap)
	case *primary == "":
		fmt.Fprintln(os.Stderr, "seqrouter: -primary is required (or -shard-map for coordinator mode)")
		os.Exit(2)
	default:
		err = run(*listen, *primary, replicas, *probe, int64(maxLag), f.Server)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "seqrouter:", err)
		os.Exit(1)
	}
}

// parseShardMap reads a static placement map: one shard-server address per
// line, in shard order; blank lines and '#' comments are skipped.
func parseShardMap(path string) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var addrs []string
	for i, line := range strings.Split(string(raw), "\n") {
		if idx := strings.IndexByte(line, '#'); idx >= 0 {
			line = line[:idx]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.ContainsAny(line, " \t") {
			return nil, fmt.Errorf("shard map %s:%d: one address per line, got %q", path, i+1, line)
		}
		addrs = append(addrs, line)
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("shard map %s: no shard addresses", path)
	}
	return addrs, nil
}

// runCoordinator serves the full seqserver HTTP API over an engine whose
// stores are remote seqshard processes.
func runCoordinator(f *cliflag.Flags, listen, shardMap string) error {
	addrs, err := parseShardMap(shardMap)
	if err != nil {
		return err
	}
	f.Config.ShardAddrs = addrs
	eng, err := seqlog.Open(f.Config)
	if err != nil {
		return err
	}
	log.Printf("seqrouter coordinating %d shards from %s", len(addrs), shardMap)
	return server.ServeEngine("seqrouter", eng, f.Server, listen)
}

func run(listen, primary string, replicas []string, probe time.Duration, maxLag int64, opts server.Options) error {
	reg := metrics.New()
	router, err := replica.NewRouter(replica.RouterOptions{
		Primary:       primary,
		Replicas:      replicas,
		ProbeInterval: probe,
		MaxLagBytes:   maxLag,
		Metrics:       reg,
	})
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	if !opts.DisableMetricsEndpoint {
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			reg.WritePrometheus(w)
		})
	}
	mux.Handle("/", router)
	log.Printf("seqrouter balancing primary=%s replicas=%d", primary, len(replicas))
	return server.Serve("seqrouter", mux, listen, opts.ShutdownTimeout, func() error {
		router.Close()
		return nil
	})
}
