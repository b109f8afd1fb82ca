package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"seqlog"
)

// The serving defaults of seqserver, which every front end shares: a
// request body cap, because front ends take /ingest writes, and a drain
// window for graceful shutdown.
const (
	DefaultMaxBodyBytes    = 64 << 20
	DefaultShutdownTimeout = 15 * time.Second
)

// ServeEngine runs the HTTP API over eng on addr through Serve and then
// syncs and closes the engine, so an acknowledged ingest is never lost to a
// graceful shutdown.
func ServeEngine(name string, eng *seqlog.Engine, opts Options, addr string) error {
	return Serve(name, NewWith(eng, opts), addr, opts.ShutdownTimeout, func() error {
		// Every acknowledged ingest already hit the WAL with an fsync; this
		// covers anything in flight at the cutoff and folds the WAL cleanly
		// for the next start.
		if err := eng.Sync(); err != nil {
			eng.Close()
			return fmt.Errorf("final sync: %w", err)
		}
		if err := eng.Close(); err != nil {
			return fmt.Errorf("close store: %w", err)
		}
		return nil
	})
}

// Serve runs h on addr until SIGINT or SIGTERM, then stops accepting
// connections and drains in-flight requests for at most drain. It runs done
// once h serves no more, whether it stopped or failed; name prefixes its
// log lines.
func Serve(name string, h http.Handler, addr string, drain time.Duration, done func() error) error {
	srv := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() {
		log.Printf("%s listening on %s", name, addr)
		serveErr <- srv.ListenAndServe()
	}()
	select {
	case err := <-serveErr:
		return errors.Join(err, done())
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	log.Printf("%s shutting down: draining in-flight requests (up to %s)", name, drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("%s: drain incomplete: %v", name, err)
	}
	if err := done(); err != nil {
		return err
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("%s stopped cleanly", name)
	return nil
}
