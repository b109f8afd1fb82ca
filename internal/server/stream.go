package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"seqlog"
)

// streamChunkEvents is how many NDJSON rows are buffered before each
// pipeline Append — small enough to react to backpressure mid-request,
// large enough to amortize admission.
const streamChunkEvents = 512

// StreamResponse is the terminal JSON object of POST /ingest/stream: how
// many events were accepted (and, on success, flushed durably before the
// 200 was written), plus the pipeline counters.
type StreamResponse struct {
	Accepted int                 `json:"accepted"`
	Stats    *seqlog.IngestStats `json:"stats,omitempty"`
}

// ingestStream is POST /ingest/stream: an NDJSON body — one event object
// per line, same shape as the /ingest elements — fed into the engine's
// streaming pipeline as it is read. The 200 ack is written only after a
// final Flush, so it means every accepted event is committed (and fsynced
// on durable engines). Error semantics are streaming-aware:
//
//   - 413 when MaxBodyBytes cut the body mid-stream; the response reports
//     how many events had already been accepted (they remain committed).
//   - 429 + Retry-After when the pipeline pushes back (ErrOverloaded),
//     again with the accepted count. Nothing of the refused chunk was
//     admitted; the client resumes from accepted.
//   - 400 on a malformed line, or on a partial-order chunk reaching back
//     into a trace (ErrReachesBack), with the accepted count.
//
// Every reply that reports accepted > 0 — success or error — is preceded by
// a Flush: clients resume from the accepted count, so the events behind it
// must be durable before it is reported. When the client disconnects
// mid-stream no reply is reachable; the appender's Close still flushes what
// the request admitted.
func (h *Handler) ingestStream(w http.ResponseWriter, r *http.Request) {
	app, err := h.engine.OpenStream(seqlog.StreamOptions{})
	if err != nil {
		if errors.Is(err, seqlog.ErrReadOnly) {
			writeErr(w, http.StatusForbidden, err)
			return
		}
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	defer app.Close()

	accepted := 0
	fail := func(status int, ferr error) {
		// Make the accepted count durable before reporting it as resumable.
		// A failed flush escalates: claiming "accepted: n" while the events
		// may be lost on crash would make clients skip them on retry.
		if accepted > 0 {
			if flushErr := app.Flush(); flushErr != nil {
				status = http.StatusInternalServerError
				ferr = fmt.Errorf("flushing %d accepted events: %w (while handling: %v)",
					accepted, flushErr, ferr)
			}
		}
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeJSON(w, status, map[string]any{
			"error":    ferr.Error(),
			"accepted": accepted,
		})
	}
	push := func(chunk []seqlog.Event) bool {
		if len(chunk) == 0 {
			return true
		}
		if err := app.Append(chunk); err != nil {
			switch {
			case errors.Is(err, seqlog.ErrOverloaded):
				fail(http.StatusTooManyRequests, err)
			case errors.Is(err, seqlog.ErrReachesBack):
				fail(http.StatusBadRequest, err)
			default:
				fail(http.StatusInternalServerError, err)
			}
			return false
		}
		accepted += len(chunk)
		return true
	}

	// Under partial order a trace's tie group must arrive in one Append, so a
	// full chunk is cut only where the timestamp moves on: a time-ordered
	// body then never splits a tie group, wherever row 512 falls.
	ties := h.engine.PartialOrder()
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	chunk := make([]seqlog.Event, 0, streamChunkEvents)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var ev seqlog.Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			// A body-size cut mid-line surfaces as a truncated (malformed)
			// final token before sc.Err() is reachable; report it as 413,
			// not as a client syntax error.
			var tooBig *http.MaxBytesError
			if errors.As(sc.Err(), &tooBig) {
				fail(http.StatusRequestEntityTooLarge, sc.Err())
				return
			}
			fail(http.StatusBadRequest, fmt.Errorf("line %d: %w", line, err))
			return
		}
		if ties && len(chunk) >= streamChunkEvents && ev.Time != chunk[len(chunk)-1].Time {
			if !push(chunk) {
				return
			}
			chunk = chunk[:0]
		}
		chunk = append(chunk, ev)
		if !ties && len(chunk) >= streamChunkEvents {
			if !push(chunk) {
				return
			}
			chunk = chunk[:0]
		}
	}
	if err := sc.Err(); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			fail(http.StatusRequestEntityTooLarge, err)
			return
		}
		// A read error with a dead request context means the client hung up
		// mid-stream: no reply is deliverable, so skip it; the deferred Close
		// commits what was admitted.
		if r.Context().Err() != nil || errors.Is(err, io.ErrUnexpectedEOF) {
			return
		}
		fail(http.StatusBadRequest, err)
		return
	}
	if !push(chunk) {
		return
	}

	// Ack means fsynced: drain what this request admitted before the 200.
	if err := app.Flush(); err != nil {
		fail(http.StatusInternalServerError, err)
		return
	}
	st := app.Stats()
	writeJSON(w, http.StatusOK, StreamResponse{Accepted: accepted, Stats: &st})
}
