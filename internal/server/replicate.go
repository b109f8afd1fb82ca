package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"seqlog"
	"seqlog/internal/kvstore"
)

// Replication endpoints: a single-store durable engine serves its committed
// write-ahead log to followers under /replicate. All four endpoints are GETs
// over raw bytes (plus small JSON for state), addressed by (epoch, byte
// offset) — see internal/replica and DESIGN.md §12 for the protocol.
//
//	GET /replicate/state                          → JSON {epoch, walStart, walDurable, snapshotSize, segment}
//	GET /replicate/wal?epoch&from&max&wait_ms     → committed WAL bytes from the offset; long-polls when caught up;
//	                                                X-Seqlog-Durable carries the watermark; 409 when compacted past
//	GET /replicate/snapshot?epoch&from&max        → snapshot-region bytes for a full resync; empty body at region end
//	GET /replicate/segment?name&from              → an immutable segment file from the offset (resumable)

const (
	// replicateMaxChunk caps one WAL/snapshot response body.
	replicateMaxChunk = 4 << 20
	// replicateDefaultChunk is used when the follower sends no max.
	replicateDefaultChunk = 1 << 20
	// replicateMaxWait caps the wal long poll.
	replicateMaxWait = 30 * time.Second
	// replicatePollEvery is the long poll's re-check cadence.
	replicatePollEvery = 25 * time.Millisecond
)

// replicateRoutes mounts the /replicate endpoints when the engine can serve
// replication (single durable store). Followers qualify too — replicas chain.
func (h *Handler) replicateRoutes() {
	src, ok := h.engine.ReplicaSource()
	if !ok {
		return
	}
	h.route("GET /replicate/state", "replicate_state", func(w http.ResponseWriter, r *http.Request) {
		st, err := src.State()
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	h.route("GET /replicate/wal", "replicate_wal", func(w http.ResponseWriter, r *http.Request) {
		epoch, from, max, ok := replicateCoords(w, r)
		if !ok {
			return
		}
		wait := time.Duration(0)
		if ms, err := strconv.Atoi(r.URL.Query().Get("wait_ms")); err == nil && ms > 0 {
			wait = time.Duration(ms) * time.Millisecond
			if wait > replicateMaxWait {
				wait = replicateMaxWait
			}
		}
		deadline := time.Now().Add(wait)
		buf := make([]byte, max)
		for {
			n, err := src.ReadWAL(epoch, from, buf)
			if err != nil {
				writeReplicateErr(w, err)
				return
			}
			if n > 0 || time.Now().After(deadline) || r.Context().Err() != nil {
				st, serr := src.State()
				if serr != nil {
					writeErr(w, http.StatusInternalServerError, serr)
					return
				}
				w.Header().Set("X-Seqlog-Durable", strconv.FormatInt(st.WALDurable, 10))
				w.Header().Set("Content-Type", "application/octet-stream")
				w.Write(buf[:n])
				return
			}
			// Caught up: hold the request until bytes land or the poll
			// budget (or the request context) runs out.
			select {
			case <-r.Context().Done():
			case <-time.After(replicatePollEvery):
			}
		}
	})
	h.route("GET /replicate/snapshot", "replicate_snapshot", func(w http.ResponseWriter, r *http.Request) {
		epoch, from, max, ok := replicateCoords(w, r)
		if !ok {
			return
		}
		buf := make([]byte, max)
		n, err := src.ReadSnapshot(epoch, from, buf)
		if err != nil && !errors.Is(err, io.EOF) {
			writeReplicateErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(buf[:n])
	})
	h.route("GET /replicate/segment", "replicate_segment", func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("name")
		from, _ := strconv.ParseInt(r.URL.Query().Get("from"), 10, 64)
		size, err := src.SegmentSize(name)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		if from < 0 || from > size {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("offset %d outside segment of %d bytes", from, size))
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.FormatInt(size-from, 10))
		buf := make([]byte, 256<<10)
		for from < size {
			n, err := src.ReadSegment(name, from, buf)
			if n > 0 {
				if _, werr := w.Write(buf[:n]); werr != nil {
					return
				}
				from += int64(n)
			}
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				return // headers are gone; the client sees a short body and resumes
			}
		}
	})
}

// replicateCoords parses the shared epoch/from/max query parameters.
func replicateCoords(w http.ResponseWriter, r *http.Request) (epoch uint64, from int64, max int, ok bool) {
	q := r.URL.Query()
	epoch, eerr := strconv.ParseUint(q.Get("epoch"), 10, 64)
	from, ferr := strconv.ParseInt(q.Get("from"), 10, 64)
	if eerr != nil || ferr != nil {
		writeErr(w, http.StatusBadRequest, errors.New("epoch and from are required"))
		return 0, 0, 0, false
	}
	max = replicateDefaultChunk
	if m, err := strconv.Atoi(q.Get("max")); err == nil && m > 0 {
		max = m
	}
	if max > replicateMaxChunk {
		max = replicateMaxChunk
	}
	return epoch, from, max, true
}

// writeReplicateErr maps replication read failures: stale coordinates (the
// primary compacted past them or changed epochs) answer 409 so the follower
// knows to refetch state and resync; everything else is a 500.
func writeReplicateErr(w http.ResponseWriter, err error) {
	if errors.Is(err, kvstore.ErrLogTruncated) {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeErr(w, http.StatusInternalServerError, err)
}

// healthLive is GET /health/live: pure liveness — the process is up and the
// engine answers. A follower deep in resync is alive but not ready.
func (h *Handler) healthLive(w http.ResponseWriter, _ *http.Request) {
	if _, err := h.engine.NumTraces(); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// healthReady is GET /health/ready: readiness to serve queries. A primary is
// ready when live. A follower is ready only when it is tailing its primary's
// WAL (not resyncing), its reported lag is at most Options.ReadyMaxLagBytes,
// and — when Options.ReadyMaxStale is set — it heard from the primary
// recently enough. Not-ready answers 503 with the same JSON body, so load
// balancers can drain on status code alone while operators read the reason.
//
// Body fields: status ("ok" | "lagging"), role ("primary" | "follower"),
// and replication (the follower's Stats: state, epoch, offset, lagBytes,
// appliedGroups, resyncs, lastContact, lastError).
func (h *Handler) healthReady(w http.ResponseWriter, _ *http.Request) {
	if _, err := h.engine.NumTraces(); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	body := map[string]any{"status": "ok", "role": h.engine.Role()}
	status := http.StatusOK
	if st := h.engine.Replication(); st != nil {
		body["replication"] = st
		maxLag := h.opts.ReadyMaxLagBytes
		if maxLag == 0 {
			maxLag = 32 << 20
		}
		ready := st.State == "tailing" && (maxLag < 0 || st.LagBytes <= maxLag)
		if ready && h.opts.ReadyMaxStale > 0 && time.Since(st.LastContact) > h.opts.ReadyMaxStale {
			ready = false
		}
		if !ready {
			body["status"] = "lagging"
			status = http.StatusServiceUnavailable
		}
	}
	writeJSON(w, status, body)
}

// writeMutationErr maps a write-endpoint failure: 403 on a read-only replica,
// 500 otherwise.
func writeMutationErr(w http.ResponseWriter, err error) {
	if errors.Is(err, seqlog.ErrReadOnly) {
		writeErr(w, http.StatusForbidden, err)
		return
	}
	if errors.Is(err, seqlog.ErrReachesBack) {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeErr(w, http.StatusInternalServerError, err)
}
