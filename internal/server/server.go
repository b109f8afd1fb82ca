// Package server exposes the query processor as an HTTP JSON API — the
// substitute for the paper's Java Spring query executor. One handler wraps
// one seqlog.Engine; ingestion and queries share the engine exactly as the
// paper's architecture shares the indexing database.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"seqlog"
	"seqlog/internal/metrics"
)

// Options harden the HTTP API against abusive or stuck requests.
type Options struct {
	// RequestTimeout bounds the total handling time of every request: the
	// request context carries the deadline, so a slow query is actually
	// aborted at its next cooperative check (not merely answered 503 while
	// the work keeps running, the old TimeoutHandler failure mode) and the
	// client sees 503 {"error":"request timed out"}. Zero disables the
	// limit. Client disconnects cancel the work the same way at any time.
	RequestTimeout time.Duration
	// QueryTimeout bounds the query endpoints (/detect, /stats, /explore)
	// specifically, on top of RequestTimeout; per-request timeoutMS fields
	// may tighten it further but never loosen it. Zero disables it.
	QueryTimeout time.Duration
	// QueryBudgetRows caps the rows one query may examine (seqlog
	// Limits.MaxRows); queries over budget answer 503 — or a 200 with
	// "truncated":true under PartialResults. Per-request budgetRows fields
	// may tighten the cap but never loosen it. Zero disables it.
	QueryBudgetRows int64
	// PartialResults turns budget exhaustion on the detect family into
	// graceful degradation: the matches found so far are returned with a
	// truncated marker instead of an error. Per-request partial fields
	// override it either way.
	PartialResults bool
	// MaxBodyBytes caps request body sizes (ingestion batches, query
	// payloads); larger bodies are rejected with 413. Zero disables the cap.
	MaxBodyBytes int64
	// Pprof mounts the runtime profiler under GET /debug/pprof/. Off by
	// default: the profile endpoints can hold a request open for tens of
	// seconds and expose internals, so enabling is an operator decision.
	Pprof bool
	// DisableMetricsEndpoint hides GET /metrics. Per-request metrics are
	// still recorded into the engine registry.
	DisableMetricsEndpoint bool
	// ReadyMaxLagBytes is the replication lag beyond which a follower's
	// GET /health/ready answers 503 (drain me). 0 uses the default
	// (32 MiB); negative disables the lag check.
	ReadyMaxLagBytes int64
	// ReadyMaxStale, when positive, additionally marks a follower
	// not-ready when it has not heard from its primary for this long —
	// lag can't be trusted when the primary is unreachable.
	ReadyMaxStale time.Duration
	// ShutdownTimeout is the drain window Serve grants in-flight requests
	// on SIGINT or SIGTERM.
	ShutdownTimeout time.Duration
}

// Handler is the HTTP API. Create it with New and mount it as an
// http.Handler.
type Handler struct {
	engine *seqlog.Engine
	mux    *http.ServeMux
	inner  http.Handler
	// ops serves /metrics and /debug/pprof outside the request timeout: a
	// 30s CPU profile must not be cut off by the request deadline. Nil when
	// neither is enabled.
	ops  *http.ServeMux
	reg  *metrics.Registry // engine registry
	opts Options
}

// New wraps an engine with no request limits.
func New(engine *seqlog.Engine) *Handler { return NewWith(engine, Options{}) }

// NewWith wraps an engine with the given request limits.
func NewWith(engine *seqlog.Engine, opts Options) *Handler {
	h := &Handler{engine: engine, mux: http.NewServeMux(), reg: engine.Metrics(), opts: opts}
	h.route("GET /health", "health", h.health)
	h.route("GET /activities", "activities", h.activities)
	h.route("GET /periods", "periods", h.periods)
	h.route("GET /info", "info", h.info)
	h.route("GET /trace/{id}", "trace", h.trace)
	h.route("POST /ingest", "ingest", h.ingest)
	h.route("POST /ingest/stream", "ingest_stream", h.ingestStream)
	h.route("POST /detect", "detect", h.detect)
	h.route("POST /stats", "stats", h.stats)
	h.route("POST /explore", "explore", h.explore)
	h.route("POST /prune", "prune", h.prune)
	h.route("POST /periods/rotate", "rotate", h.rotate)
	h.route("GET /health/live", "health_live", h.healthLive)
	h.route("GET /health/ready", "health_ready", h.healthReady)
	h.replicateRoutes()
	h.inner = h.mux
	if !opts.DisableMetricsEndpoint {
		h.opsMux().HandleFunc("GET /metrics", h.metricsText)
	}
	if opts.Pprof {
		m := h.opsMux()
		m.HandleFunc("GET /debug/pprof/", pprof.Index)
		m.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		m.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		m.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		m.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return h
}

func (h *Handler) opsMux() *http.ServeMux {
	if h.ops == nil {
		h.ops = http.NewServeMux()
	}
	return h.ops
}

// route registers one API endpoint, wrapped to observe its latency and count
// its responses by status code.
func (h *Handler) route(pattern, name string, fn http.HandlerFunc) {
	dur := h.reg.Histogram("seqlog_http_request_duration_seconds",
		metrics.Label{Key: "route", Value: name})
	h.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		fn(sw, r)
		dur.Observe(time.Since(start))
		code := sw.status
		if code == 0 {
			code = http.StatusOK
		}
		h.reg.Counter("seqlog_http_requests_total",
			metrics.Label{Key: "route", Value: name},
			metrics.Label{Key: "code", Value: strconv.Itoa(code)}).Add(1)
	})
}

// statusWriter remembers the first status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// Write records the implicit 200 of a body written without WriteHeader, so
// the post-handler timeout check and the status-code metrics see that a
// response already went out (raw-byte endpoints like /replicate/wal answer
// this way).
func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// metricsText is GET /metrics: the registry in Prometheus text exposition.
func (h *Handler) metricsText(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	h.reg.WritePrometheus(w)
}

// ServeHTTP implements http.Handler: body limits, the request deadline, and
// a panic barrier so one bad request cannot take the whole server down.
//
// The deadline is request-scoped cancellation, not http.TimeoutHandler: the
// context expires, every engine call on the request aborts at its next
// cooperative check, and the worker goroutines actually stop — under heavy
// traffic abandoned queries no longer pile up behind 503s. The same context
// is canceled by the HTTP server when the client disconnects, so a hung-up
// client aborts its query too.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			// Best effort: if the handler already wrote headers this is a
			// no-op and the client sees a truncated response.
			writeErr(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", rec))
		}
	}()
	if h.ops != nil && (r.URL.Path == "/metrics" || strings.HasPrefix(r.URL.Path, "/debug/pprof")) {
		h.ops.ServeHTTP(w, r)
		return
	}
	if h.opts.MaxBodyBytes > 0 && r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, h.opts.MaxBodyBytes)
	}
	if h.opts.RequestTimeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), h.opts.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	sw := &statusWriter{ResponseWriter: w}
	h.inner.ServeHTTP(sw, r)
	// A handler that observed the deadline and returned without answering
	// still owes the client the timeout status.
	if sw.status == 0 && r.Context().Err() != nil {
		writeErr(sw, http.StatusServiceUnavailable, errors.New("request timed out"))
	}
}

// QueryOverrides are the per-request knobs every query endpoint accepts.
// They only ever tighten the server-configured limits: a request may ask for
// a shorter timeout or a smaller row budget, never a longer leash.
type QueryOverrides struct {
	// TimeoutMS bounds this query in milliseconds (min with QueryTimeout).
	TimeoutMS int64 `json:"timeoutMS,omitempty"`
	// BudgetRows caps the rows this query may examine (min with
	// QueryBudgetRows).
	BudgetRows int64 `json:"budgetRows,omitempty"`
	// Partial overrides the server's PartialResults default for this query.
	Partial *bool `json:"partial,omitempty"`
}

// queryCtx derives the context one query runs under: the request context
// (deadline + client disconnect), tightened by the query timeout and row
// budget. The returned cancel must run when the handler is done.
func (h *Handler) queryCtx(r *http.Request, o QueryOverrides) (context.Context, context.CancelFunc) {
	ctx, cancel := r.Context(), context.CancelFunc(func() {})
	timeout := h.opts.QueryTimeout
	if o.TimeoutMS > 0 {
		if t := time.Duration(o.TimeoutMS) * time.Millisecond; timeout <= 0 || t < timeout {
			timeout = t
		}
	}
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	l := seqlog.Limits{MaxRows: h.opts.QueryBudgetRows, Partial: h.opts.PartialResults}
	if o.BudgetRows > 0 && (l.MaxRows <= 0 || o.BudgetRows < l.MaxRows) {
		l.MaxRows = o.BudgetRows
	}
	if o.Partial != nil {
		l.Partial = *o.Partial
	}
	if l.MaxRows > 0 || l.Partial {
		ctx = seqlog.WithLimits(ctx, l)
	}
	return ctx, cancel
}

// writeQueryErr maps a query failure onto its status: 503 for the overload
// outcomes (deadline, cancellation, budget), 400 for everything else (bad
// patterns and other caller mistakes).
func writeQueryErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeErr(w, http.StatusServiceUnavailable, errors.New("request timed out"))
	case errors.Is(err, context.Canceled):
		// The client is usually gone; the status is for logs and metrics.
		writeErr(w, http.StatusServiceUnavailable, errors.New("request canceled"))
	case errors.Is(err, seqlog.ErrBudgetExceeded):
		writeErr(w, http.StatusServiceUnavailable, err)
	default:
		writeErr(w, http.StatusBadRequest, err)
	}
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// writeDecodeErr maps a request-body failure onto its status: 413 when the
// MaxBodyBytes cap cut the body off, 400 otherwise.
func writeDecodeErr(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeErr(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	writeErr(w, http.StatusBadRequest, err)
}

func (h *Handler) health(w http.ResponseWriter, _ *http.Request) {
	n, err := h.engine.NumTraces()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	status := "ok"
	body := map[string]any{"traces": n}
	if rec := h.engine.Recovery(); rec.Degraded() {
		// The store came up via salvage recovery: it serves what survived,
		// but some committed data was quarantined.
		status = "degraded"
		body["recovery"] = rec
	}
	if st := h.engine.IngestInfo(); st != nil {
		body["ingest"] = st
	}
	body["role"] = h.engine.Role()
	if st := h.engine.Replication(); st != nil {
		body["replication"] = st
	}
	body["status"] = status
	writeJSON(w, http.StatusOK, body)
}

func (h *Handler) activities(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"activities": h.engine.Activities()})
}

func (h *Handler) periods(w http.ResponseWriter, _ *http.Request) {
	ps, err := h.engine.Periods()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"periods": ps})
}

func (h *Handler) info(w http.ResponseWriter, _ *http.Request) {
	info, err := h.engine.Info()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (h *Handler) trace(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad trace id: %w", err))
		return
	}
	events, ok, err := h.engine.TraceEvents(id)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("trace %d not found", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"trace": id, "events": events})
}

// IngestRequest is the body of POST /ingest.
type IngestRequest struct {
	Events []seqlog.Event `json:"events"`
}

func (h *Handler) ingest(w http.ResponseWriter, r *http.Request) {
	var req IngestRequest
	if err := decode(r, &req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	if len(req.Events) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("no events"))
		return
	}
	st, err := h.engine.IngestCtx(r.Context(), req.Events)
	if err != nil {
		if r.Context().Err() != nil {
			writeQueryErr(w, r.Context().Err())
			return
		}
		writeMutationErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// DetectRequest is the body of POST /detect: the engine's DetectOptions
// (scan, within; both together are a 400) plus the response shape.
type DetectRequest struct {
	Pattern []string `json:"pattern"`
	seqlog.DetectOptions
	// TracesOnly answers with the distinct trace ids of whichever detection
	// ran instead of its matches.
	TracesOnly bool `json:"tracesOnly,omitempty"`
	QueryOverrides
}

// DetectResponse is the answer of POST /detect. Truncated marks a
// partial-results answer: the query hit its row budget and the matches are
// a valid subset of the full answer.
type DetectResponse struct {
	Matches   []seqlog.Match `json:"matches,omitempty"`
	Traces    []int64        `json:"traces,omitempty"`
	Truncated bool           `json:"truncated,omitempty"`
}

func (h *Handler) detect(w http.ResponseWriter, r *http.Request) {
	var req DetectRequest
	if err := decode(r, &req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	ctx, cancel := h.queryCtx(r, req.QueryOverrides)
	defer cancel()
	ms, err := h.engine.Detect(ctx, req.Pattern, req.DetectOptions)
	if err != nil && !seqlog.Truncated(err) {
		writeQueryErr(w, err)
		return
	}
	resp := DetectResponse{Matches: ms, Truncated: err != nil}
	if req.TracesOnly {
		resp.Matches, resp.Traces = nil, seqlog.Traces(ms)
	}
	writeJSON(w, http.StatusOK, resp)
}

// StatsRequest is the body of POST /stats.
type StatsRequest struct {
	Pattern []string `json:"pattern"`
	seqlog.StatsOptions
	QueryOverrides
}

func (h *Handler) stats(w http.ResponseWriter, r *http.Request) {
	var req StatsRequest
	if err := decode(r, &req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	ctx, cancel := h.queryCtx(r, req.QueryOverrides)
	defer cancel()
	st, err := h.engine.Stats(ctx, req.Pattern, req.StatsOptions)
	if err != nil {
		writeQueryErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// ExploreRequest is the body of POST /explore. When Position is set the
// candidate event is inserted there instead of appended (the §7 extension).
type ExploreRequest struct {
	Pattern []string `json:"pattern"`
	seqlog.ExploreOptions
	QueryOverrides
}

func (h *Handler) explore(w http.ResponseWriter, r *http.Request) {
	var req ExploreRequest
	if err := decode(r, &req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	ctx, cancel := h.queryCtx(r, req.QueryOverrides)
	defer cancel()
	props, err := h.engine.Explore(ctx, req.Pattern, req.ExploreOptions)
	if err != nil {
		writeQueryErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"proposals": props})
}

// PruneRequest is the body of POST /prune.
type PruneRequest struct {
	Traces []int64 `json:"traces"`
}

func (h *Handler) prune(w http.ResponseWriter, r *http.Request) {
	var req PruneRequest
	if err := decode(r, &req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	if err := h.engine.PruneTraces(req.Traces); err != nil {
		writeMutationErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"pruned": len(req.Traces)})
}

// RotateRequest is the body of POST /periods/rotate.
type RotateRequest struct {
	Period string `json:"period"`
}

func (h *Handler) rotate(w http.ResponseWriter, r *http.Request) {
	var req RotateRequest
	if err := decode(r, &req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	if req.Period == "" {
		writeErr(w, http.StatusBadRequest, errors.New("period required"))
		return
	}
	if err := h.engine.RotatePeriod(req.Period); err != nil {
		writeMutationErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"period": req.Period})
}
