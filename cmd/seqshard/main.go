// Command seqshard serves one shard of a seqlog index over the netshard wire
// protocol (DESIGN.md §13). It owns a single kvstore plus its segment tier
// under <dir>/segments and exposes the raw table read/commit surface to
// remote engines — it runs no query processor of its own. Point an engine
// (or seqrouter -shard-map) at a fleet of these and the engine's shard
// router treats each process exactly like a local store directory: a
// durable shard freezes its postings into a segment before each automatic
// compaction, as an engine's own store does, and opens a store an engine
// froze.
//
// Usage:
//
//	seqshard -addr :9101 -dir ./shard-0 [-cache-mb 64]
//
// On SIGINT/SIGTERM the server stops accepting connections, waits for
// in-flight requests (commit groups are never torn: they apply under the
// store's crash-atomic batch), then syncs and closes the store.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"seqlog"
	"seqlog/cmd/internal/cliflag"
	"seqlog/internal/kvstore"
	"seqlog/internal/metrics"
	"seqlog/internal/netshard"
	"seqlog/internal/storage"
)

func main() {
	f := cliflag.New(flag.CommandLine)
	f.Store("dir", "segments", "salvage", "cache-mb")
	var (
		addr        = flag.String("addr", ":9101", "netshard listen address")
		metricsAddr = flag.String("metrics-addr", "", "serve GET /metrics on this address (empty disables)")
		maxFrameMB  = flag.Int("max-frame-mb", 0, "largest request/response frame accepted in MiB (0 = default 32)")
		maxCommitMB = flag.Int("max-commit-mb", 0, "largest buffered commit group accepted in MiB (0 = default 512)")
	)
	flag.Parse()
	if err := run(f.Config, *addr, *metricsAddr, *maxFrameMB, *maxCommitMB); err != nil {
		fmt.Fprintln(os.Stderr, "seqshard:", err)
		os.Exit(1)
	}
}

func run(cfg seqlog.Config, addr, metricsAddr string, maxFrameMB, maxCommitMB int) error {
	reg := metrics.New()

	var store kvstore.Store
	var tab *storage.Tables
	if cfg.Dir == "" {
		store = kvstore.NewMemStore()
		tab = storage.NewTables(store)
	} else {
		ds, err := kvstore.OpenDiskWith(cfg.Dir, kvstore.DiskOptions{Salvage: cfg.Salvage, Metrics: reg})
		if err != nil {
			return err
		}
		store = ds
		tab, err = storage.OpenTables(ds, storage.Options{SegmentDir: filepath.Join(cfg.Dir, "segments")})
		if err != nil {
			ds.Close()
			return err
		}
		ds.SetBeforeCompact(tab.FreezePostings)
		if rec := ds.Recovery(); rec.Salvaged {
			log.Printf("WARNING: store salvaged at startup: %d corrupt regions (%d bytes) quarantined",
				rec.DroppedRegions, rec.DroppedBytes)
		}
	}
	defer store.Close()
	defer tab.Close()
	tab.SetMetrics(reg)
	if cfg.CacheBytes != 0 {
		tab.SetCacheBudget(cfg.CacheBytes)
	}

	so := netshard.ServerOptions{Logf: log.Printf}
	if maxFrameMB > 0 {
		so.MaxFrame = maxFrameMB << 20
	}
	if maxCommitMB > 0 {
		so.MaxCommit = int64(maxCommitMB) << 20
	}
	srv := netshard.NewServer(tab, store, so)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}

	var msrv *http.Server
	if metricsAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			reg.WritePrometheus(w)
		})
		msrv = &http.Server{Addr: metricsAddr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("seqshard: metrics server: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() {
		log.Printf("seqshard listening on %s (dir=%q)", ln.Addr(), cfg.Dir)
		serveErr <- srv.Serve(ln)
	}()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	log.Printf("seqshard shutting down")
	srv.Close() // closes the listener and waits for in-flight handlers
	<-serveErr
	if msrv != nil {
		mctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		msrv.Shutdown(mctx)
		cancel()
	}
	// Acked commit groups already hit the WAL; this covers the plain writes
	// engines make outside a group.
	if sy, ok := store.(interface{ Sync() error }); ok {
		if err := sy.Sync(); err != nil {
			return fmt.Errorf("final sync: %w", err)
		}
	}
	log.Printf("seqshard stopped cleanly")
	return nil
}
