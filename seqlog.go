// Package seqlog detects arbitrary event sequences in large activity logs.
//
// It is a from-scratch Go implementation of the system described in
// "Sequence detection in event log files" (EDBT 2021): an inverted index of
// event-type pairs, maintained incrementally as new log batches arrive, that
// answers three families of pattern queries under two matching policies —
// strict contiguity (SC) and skip-till-next-match (STNM):
//
//   - Statistics: per-pair completion counts, average durations and last
//     completions, combined into bounds for the whole pattern.
//   - Pattern detection: all traces (and match timestamps) containing the
//     pattern, computed by joining inverted-index rows.
//   - Pattern continuation: the most likely next events after a pattern,
//     with an exact, a heuristic, and a hybrid strategy trading accuracy
//     for response time.
//
// The Engine is the entry point:
//
//	eng, err := seqlog.Open(seqlog.Config{Policy: "STNM"})
//	...
//	eng.Ingest([]seqlog.Event{{Trace: 1, Activity: "login", Time: 1000}, ...})
//	matches, err := eng.Detect(ctx, []string{"login", "checkout"}, seqlog.DetectOptions{})
//
// Each query family has one method — Detect, Stats and Explore — taking an
// options struct that is also the body of the matching HTTP route.
//
// Indices live in an embedded key-value store: in memory by default, or on
// disk (write-ahead logged, crash-recoverable) when Config.Dir is set.
package seqlog

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seqlog/internal/eventlog"
	"seqlog/internal/ingest"
	"seqlog/internal/kvstore"
	"seqlog/internal/metrics"
	"seqlog/internal/model"
	"seqlog/internal/netshard"
	"seqlog/internal/pairs"
	"seqlog/internal/query"
	"seqlog/internal/replica"
	"seqlog/internal/shard"
	"seqlog/internal/storage"
)

// Config configures an Engine.
//
// Policy, PartialOrder and Shards say how a store is built. A new store
// pins them in its metadata and a reopen takes them from there, so their
// zero values mean "what the store holds" (STNM, total order and one shard
// for a new store). A non-zero value that disagrees with the store fails
// Open instead of re-routing keys or mixing pair semantics.
type Config struct {
	// Policy is the pair-indexing policy: "SC" or "STNM".
	Policy string
	// Workers is the number of trace-affinity shards, and so the extraction
	// parallelism, of the ingestion pipeline; 0 uses all cores.
	Workers int
	// Dir, when non-empty, stores the index durably in that directory
	// (write-ahead log + snapshots). Empty means in-memory. A durable store
	// folds its postings into a block-compressed segment file before each
	// automatic compaction (see Freeze).
	Dir string
	// Shards splits the index tables across that many independent stores
	// (each with its own WAL, snapshots and compaction): index rows route
	// by pair key, traces by affinity hash, and reads scatter-gather with
	// a deterministic merge, so results are identical at any shard count.
	// 1 is the classic single store.
	Shards int
	// ShardDir, when non-empty, overrides where a sharded engine keeps its
	// shard-NNNN directories (default: Dir). Dir then records the location,
	// so a later open needs only Dir. Ignored when Shards <= 1.
	ShardDir string
	// ShardAddrs, when non-empty, opens the engine over remote shard
	// servers (cmd/seqshard) instead of local stores: one netshard client
	// per address, in shard order — the slice IS the placement map and must
	// be identical on every coordinator, since routing is a pure function
	// of (key, count, position). Storage-affecting options (Dir, ShardDir,
	// Salvage) then belong to the shard servers and must be left unset.
	// The shard count is still pinned in the (replicated) meta table, so
	// pointing a coordinator at a subset of an existing cluster fails
	// instead of silently re-routing keys.
	ShardAddrs []string
	// Period names the index partition new batches are written to; see
	// RotatePeriod.
	Period string
	// PartialOrder treats same-timestamp events of a trace as concurrent
	// (the §7 extension): such events never pair with each other and
	// detection steps must advance strictly in time. Requires the STNM
	// policy; a batch (or stream Append) may not reach back to a timestamp
	// its trace already holds, so a tie group must arrive in one piece.
	// Such a batch fails alone with ErrReachesBack.
	PartialOrder bool
	// CacheBytes bounds the decoded-postings cache that keeps hot
	// inverted-index rows decoded and pre-sorted between queries: 0 uses
	// the default budget (64 MiB), a negative value disables caching.
	// Results are identical either way; only latency changes.
	CacheBytes int64
	// Segments is accepted and ignored (see Dir); it stays until the
	// separate benchmark module stops setting it.
	Segments bool
	// Salvage switches durable-store recovery to quarantine-and-continue:
	// corrupt WAL or snapshot regions are skipped (and preserved in a
	// QUARANTINE file) instead of failing Open, and the engine reports
	// itself degraded through Recovery / Info. Without it, corruption fails
	// Open with kvstore.ErrCorruptWAL or kvstore.ErrCorruptSnapshot.
	Salvage bool
	// FlushEvents is the size trigger of an ingestion-pipeline flush.
	FlushEvents int
	// FlushInterval is the age trigger of an ingestion-pipeline flush.
	FlushInterval time.Duration
	// IngestQueue bounds the ingestion input queue (backpressure).
	IngestQueue int
	// SlowQueryThreshold, when positive, logs every query taking at least
	// this long as one structured line — family, pattern arity, rows
	// scanned, duration — to SlowQueryLog.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives slow-query lines; nil means os.Stderr.
	SlowQueryLog io.Writer
	// ReadOnly rejects every local mutation (Ingest, PruneTraces,
	// RotatePeriod, DropPeriod, Freeze, OpenStream) with ErrReadOnly,
	// writes no metadata on open and disables the segment-freeze
	// compaction trigger. It is how a read replica opens its store: the
	// replication applier (StartFollower) is then the store's only writer,
	// so replicated and local writes can never interleave. Queries are
	// unaffected.
	ReadOnly bool
}

// Event is one public log record: an activity executed inside a trace at a
// point in time (milliseconds; any monotone clock works — positions are a
// valid fallback).
type Event struct {
	Trace    int64
	Activity string
	Time     int64
}

// Match is one detected pattern completion.
type Match struct {
	Trace int64
	// Times holds one timestamp per pattern event.
	Times []int64
}

// PairStats mirrors the Statistics query output for one consecutive pair.
type PairStats struct {
	First          string
	Second         string
	Completions    int64
	AvgDuration    float64
	LastCompletion int64
}

// PatternStats aggregates PairStats over a pattern.
type PatternStats struct {
	Pairs             []PairStats
	MaxCompletions    int64
	EstimatedDuration float64
}

// Proposal is one pattern-continuation candidate.
type Proposal struct {
	Activity    string
	Completions int64
	AvgDuration float64
	Score       float64
	Exact       bool
}

// UpdateStats summarises one ingestion batch.
type UpdateStats struct {
	Traces int // distinct traces the batch touched
	Events int // events in the batch
}

// ExploreMode selects a continuation strategy.
type ExploreMode string

const (
	// Accurate verifies every candidate exactly (Alg. 3), sharing the
	// pattern's join across candidates.
	Accurate ExploreMode = "accurate"
	// Fast uses only precomputed statistics (Alg. 4).
	Fast ExploreMode = "fast"
	// Hybrid re-checks the topK Fast candidates accurately (Alg. 5).
	Hybrid ExploreMode = "hybrid"
)

// DetectOptions select how Detect answers; the zero value is the index join
// of Algorithm 2. The JSON names are the POST /detect body fields.
type DetectOptions struct {
	// Within, when positive, keeps only completions spanning at most this
	// many milliseconds (the WITHIN clause of CEP languages); over-window
	// chains are pruned during the join.
	Within int64 `json:"within,omitempty"`
	// Scan scans the stored traces instead of joining index rows: exact for
	// both policies (partial-order aware under Config.PartialOrder), slower
	// on large logs. It cannot be combined with Within.
	Scan bool `json:"scan,omitempty"`
}

// validate rejects what no store could answer. It runs before the pattern's
// names resolve, so a malformed query fails the same way whatever the store
// holds. The join anchors on pairs and needs two events; a scan takes one.
func (o DetectOptions) validate(patternLen int) error {
	switch {
	case o.Within < 0:
		return errors.New("seqlog: within must not be negative")
	case o.Scan && o.Within > 0:
		// Filtering greedy scan matches by span afterwards is not a
		// windowed STNM match: the combination has no sound answer.
		return errors.New("seqlog: scan detection does not support within")
	case !o.Scan && patternLen < 2:
		return query.ErrShortPattern
	}
	return nil
}

// StatsOptions select the bound Stats computes. The JSON name is the
// POST /stats body field.
type StatsOptions struct {
	// AllPairs bounds with every ordered pair of the pattern instead of the
	// consecutive ones only: a tighter (never looser) bound on the number of
	// non-overlapping completions, at quadratically more row reads (§3.2.1's
	// accuracy/running-time trade-off).
	AllPairs bool `json:"allPairs,omitempty"`
}

// validate is Stats' twin of DetectOptions.validate: the pair statistics
// need two events.
func (o StatsOptions) validate(patternLen int) error {
	if patternLen < 2 {
		return query.ErrShortPattern
	}
	return nil
}

// ExploreOptions select and tune the continuation strategy. The JSON names
// are the POST /explore body fields.
type ExploreOptions struct {
	// Mode is the strategy: accurate, fast or hybrid (empty means Hybrid).
	Mode ExploreMode `json:"mode"`
	// TopK is the number of Fast candidates Hybrid re-checks.
	TopK int `json:"topK,omitempty"`
	// MaxAvgGap drops candidates whose mean gap after the pattern
	// exceeds it (0 disables the constraint).
	MaxAvgGap float64 `json:"maxAvgGap,omitempty"`
	// Position, when set, proposes events to insert at that position of
	// the pattern (0 = before the first event, len(pattern) = append)
	// instead of after it — the §7 extension for completing patterns at
	// arbitrary places.
	Position *int `json:"position,omitempty"`
}

// validate is Explore's twin of DetectOptions.validate: a known mode,
// non-negative tuning values and an insertion position inside the pattern.
func (o ExploreOptions) validate(patternLen int) error {
	switch {
	case o.Mode != "" && o.Mode != Accurate && o.Mode != Fast && o.Mode != Hybrid:
		return fmt.Errorf("seqlog: unknown explore mode %q", o.Mode)
	case o.TopK < 0:
		return errors.New("seqlog: topK must not be negative")
	case o.MaxAvgGap < 0:
		return errors.New("seqlog: maxAvgGap must not be negative")
	case o.Position != nil && (*o.Position < 0 || *o.Position > patternLen):
		return query.ErrBadPosition
	}
	return nil
}

// Limits bounds the work of one query: MaxRows caps the rows it may examine,
// Partial turns budget exhaustion into graceful degradation (partial results
// plus a truncation marker) for the detect family. Attach with WithLimits;
// the zero value is unbounded. It is the engine-level alias of
// internal/query's limits, so servers and library callers share one type.
type Limits = query.Limits

// WithLimits attaches per-query work limits to ctx; pass the result to
// Detect, Stats or Explore.
func WithLimits(ctx context.Context, l Limits) context.Context {
	return query.WithLimits(ctx, l)
}

// ErrBudgetExceeded matches (errors.Is) every budget exhaustion; the error
// is a *BudgetError carrying the rows examined and elapsed time.
var ErrBudgetExceeded = query.ErrBudgetExceeded

// BudgetError is the typed budget-exhaustion error. Its Partial flag marks
// the graceful variant: results returned alongside it are a valid subset of
// the full answer.
type BudgetError = query.BudgetError

// Truncated reports whether err marks a gracefully truncated query — the
// accompanying results are valid partial results (a subset of the full
// answer), not garbage. It is the one error Detect can return together with
// non-nil results.
func Truncated(err error) bool {
	var be *BudgetError
	return errors.As(err, &be) && be.Partial
}

// Engine is the top-level handle combining the pre-processing component and
// the query processor over one indexing database.
type Engine struct {
	mu       sync.Mutex           // serialises table commits with alphabet persistence and table maintenance
	stores   []kvstore.Store      // one per shard (length 1 unsharded)
	disks    []*kvstore.DiskStore // empty for in-memory engines
	tables   storage.Backend
	built    atomic.Pointer[pairs.Rule] // how the store was built; see rule
	proc     *query.Processor
	alphabet *model.Alphabet
	cfg      Config

	// Ingestion (stream.go). pipeMu guards the pipeline — started by the
	// first write, stopped by Close, replaced when a commit fails it — the
	// counters of the pipelines it replaced, and cfg.Period; persistedActs
	// (under mu) tracks how much of the alphabet is durable, so flushes
	// persist it only on growth.
	pipeMu        sync.Mutex
	pipeline      *ingest.Pipeline
	ingestTotal   IngestStats
	persistedActs int

	// follower is non-nil once StartFollower wired this engine to a
	// primary; Close stops it before the stores shut down.
	follower *replica.Follower

	// Observability: qdur/qerr/qout hold the per-family query series so the
	// hot path never takes the registry lock.
	metrics    *metrics.Registry
	qdur       map[string]*metrics.Histogram
	qerr       map[string]*metrics.Counter
	qout       map[string]map[string]*metrics.Counter
	slowThresh time.Duration
	slowLog    *log.Logger
}

// Query families, the label values of seqlog_query_duration_seconds: the
// Statistics query, pattern detection (SC and STNM share the join), pattern
// continuation (Explore) and the §7 insert-position continuation.
const (
	famDetect  = "detect"
	famStats   = "stats"
	famExplore = "explore"
	famInsert  = "explore_insert"
)

func queryFamilies() []string {
	return []string{famDetect, famStats, famExplore, famInsert}
}

// Query outcomes, the label values of seqlog_query_outcomes_total: ok,
// generic error, context cancellation, deadline expiry, a hard budget trip,
// and a graceful (partial-results) truncation.
const (
	outOK        = "ok"
	outError     = "error"
	outCanceled  = "canceled"
	outDeadline  = "deadline"
	outBudget    = "budget"
	outTruncated = "truncated"
)

func queryOutcomes() []string {
	return []string{outOK, outError, outCanceled, outDeadline, outBudget, outTruncated}
}

// classifyOutcome maps a query error to its outcome label.
func classifyOutcome(err error) string {
	switch {
	case err == nil:
		return outOK
	case Truncated(err):
		return outTruncated
	case errors.Is(err, ErrBudgetExceeded):
		return outBudget
	case errors.Is(err, context.Canceled):
		return outCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return outDeadline
	default:
		return outError
	}
}

const (
	metaPolicy   = "policy"
	metaAlphabet = "alphabet"
	metaPartial  = "partialorder"
	metaShards   = "shards"
)

// Open creates or reopens an engine. Reopening a durable directory restores
// the interned alphabet and takes how the store was built — policy, order
// and shard count — from its metadata (see Config).
func Open(cfg Config) (*Engine, error) {
	reg := metrics.New()
	stores, disks, tables, err := openStores(cfg, reg)
	if err != nil {
		return nil, err
	}
	if cfg.CacheBytes != 0 {
		tables.SetCacheBudget(cfg.CacheBytes)
	}

	e := &Engine{
		stores:   stores,
		disks:    disks,
		tables:   tables,
		proc:     query.NewProcessor(tables),
		alphabet: model.NewAlphabet(),
		cfg:      cfg,
		metrics:  reg,
	}
	if err := e.restoreMeta(); err != nil {
		for _, s := range stores {
			s.Close()
		}
		tables.Close()
		return nil, err
	}
	e.initMetrics()
	if cfg.SlowQueryThreshold > 0 {
		w := cfg.SlowQueryLog
		if w == nil {
			w = os.Stderr
		}
		e.slowThresh = cfg.SlowQueryThreshold
		e.slowLog = log.New(w, "", log.LstdFlags|log.LUTC)
	}
	return e, nil
}

// openStores opens the engine's store(s): one kvstore, or Shards
// independent stores — each a shard-NNNN subdirectory with its own
// WAL/snapshot/compaction when durable — wrapped in the sharded backend.
// With Shards 0 a directory holding shard-NNNN stores opens sharded. Two
// layout guards fail fast instead of corrupting data: a sharded open of a
// directory holding a single-store index, and a single-store open of a
// directory holding shard subdirectories. Every durable store that may
// write freezes its postings into a segment before each automatic
// compaction.
func openStores(cfg Config, reg *metrics.Registry) ([]kvstore.Store, []*kvstore.DiskStore, storage.Backend, error) {
	if len(cfg.ShardAddrs) > 0 {
		if cfg.Dir != "" || cfg.ShardDir != "" {
			return nil, nil, nil, fmt.Errorf("seqlog: Config.ShardAddrs and Config.Dir are exclusive (remote shard servers own their directories)")
		}
		if cfg.Shards > 1 && cfg.Shards != len(cfg.ShardAddrs) {
			return nil, nil, nil, fmt.Errorf("seqlog: Config.Shards (%d) disagrees with len(Config.ShardAddrs) (%d)", cfg.Shards, len(cfg.ShardAddrs))
		}
		backends := make([]storage.Backend, len(cfg.ShardAddrs))
		closeBackends := func() {
			for _, b := range backends {
				if b != nil {
					b.Close()
				}
			}
		}
		for i, addr := range cfg.ShardAddrs {
			cl, err := netshard.Dial(addr, netshard.Options{Shard: i})
			if err != nil {
				closeBackends()
				return nil, nil, nil, fmt.Errorf("seqlog: shard %d: %w", i, err)
			}
			backends[i] = cl
		}
		st, err := shard.NewFromBackends(backends, shard.Options{})
		if err != nil {
			closeBackends()
			return nil, nil, nil, err
		}
		return nil, nil, st, nil
	}
	base := cfg.ShardDir
	if base == "" && cfg.Dir != "" {
		base = cfg.Dir
		if raw, err := os.ReadFile(filepath.Join(cfg.Dir, shardDirFile)); err == nil {
			base = string(raw)
		}
	}
	n := cfg.Shards
	if n == 0 && base != "" {
		// A reopen opens every shard-NNNN store; restoreMeta checks the
		// count against the one the store pins.
		for exists(filepath.Join(base, shardDirName(n))) {
			n++
		}
	}
	if n <= 1 {
		if cfg.Dir == "" {
			s := kvstore.NewMemStore()
			return []kvstore.Store{s}, nil, storage.NewTables(s), nil
		}
		if exists(filepath.Join(cfg.Dir, shardDirName(0))) {
			return nil, nil, nil, fmt.Errorf("seqlog: %s holds a sharded index (found %s); set Config.Shards", cfg.Dir, shardDirName(0))
		}
		d, err := kvstore.OpenDiskWith(cfg.Dir, kvstore.DiskOptions{Salvage: cfg.Salvage, Metrics: reg})
		if err != nil {
			return nil, nil, nil, err
		}
		tab, err := storage.OpenTables(d, storage.Options{SegmentDir: filepath.Join(cfg.Dir, segmentsDirName)})
		if err != nil {
			d.Close()
			return nil, nil, nil, err
		}
		if !cfg.ReadOnly {
			// A read-only replica must not freeze locally — its segment
			// files are shipped from the primary, and a divergent local
			// freeze would fork the two stores' contents.
			d.SetBeforeCompact(tab.FreezePostings)
		}
		return []kvstore.Store{d}, []*kvstore.DiskStore{d}, tab, nil
	}

	if cfg.Dir != "" && cfg.ShardDir != "" && cfg.ShardDir != cfg.Dir && !cfg.ReadOnly {
		// Record where the shards live, so a reopen needs only Dir.
		abs, err := filepath.Abs(cfg.ShardDir)
		if err == nil {
			err = os.MkdirAll(cfg.Dir, 0o755)
		}
		if err == nil {
			err = os.WriteFile(filepath.Join(cfg.Dir, shardDirFile), []byte(abs), 0o644)
		}
		if err != nil {
			return nil, nil, nil, err
		}
	}
	var (
		stores  []kvstore.Store
		disks   []*kvstore.DiskStore
		segDirs []string
	)
	closeAll := func() {
		for _, s := range stores {
			s.Close()
		}
	}
	for i := 0; i < n; i++ {
		if base == "" {
			stores = append(stores, kvstore.NewMemStore())
			continue
		}
		if i == 0 {
			if exists(filepath.Join(base, "WAL")) {
				return nil, nil, nil, fmt.Errorf("seqlog: %s holds a single-store index; open it without Config.Shards", base)
			}
		}
		dir := filepath.Join(base, shardDirName(i))
		d, err := kvstore.OpenDiskWith(dir, kvstore.DiskOptions{Salvage: cfg.Salvage, Metrics: reg})
		if err != nil {
			closeAll()
			return nil, nil, nil, err
		}
		stores = append(stores, d)
		disks = append(disks, d)
		segDirs = append(segDirs, filepath.Join(dir, segmentsDirName))
	}
	st, err := shard.New(stores, shard.Options{SegmentDirs: segDirs})
	if err != nil {
		closeAll()
		return nil, nil, nil, err
	}
	if !cfg.ReadOnly {
		for i, d := range disks {
			d.SetBeforeCompact(st.Shard(i).FreezePostings)
		}
	}
	return stores, disks, st, nil
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// shardDirFile, inside Dir, records a ShardDir other than Dir.
const shardDirFile = "SHARDDIR"

// shardDirName names shard i's subdirectory. Zero-padding keeps directory
// listings in shard order.
func shardDirName(i int) string { return fmt.Sprintf("shard-%04d", i) }

// segmentsDirName is the per-store subdirectory holding immutable postings
// segment files.
const segmentsDirName = "segments"

// Metrics returns the engine's telemetry registry — per-family query latency
// histograms, WAL/cache/ingest counters. It is never nil. The HTTP server
// exposes it as GET /metrics.
func (e *Engine) Metrics() *metrics.Registry { return e.metrics }

// initMetrics builds the per-family query series and registers the
// function-backed metrics that delegate to the subsystems' own counters, so
// the registry never becomes a second (driftable) source of truth.
func (e *Engine) initMetrics() {
	e.qdur = make(map[string]*metrics.Histogram, 4)
	e.qerr = make(map[string]*metrics.Counter, 4)
	e.qout = make(map[string]map[string]*metrics.Counter, 4)
	for _, fam := range queryFamilies() {
		l := metrics.Label{Key: "family", Value: fam}
		e.qdur[fam] = e.metrics.Histogram("seqlog_query_duration_seconds", l)
		e.qerr[fam] = e.metrics.Counter("seqlog_query_errors_total", l)
		outs := make(map[string]*metrics.Counter, 6)
		for _, out := range queryOutcomes() {
			outs[out] = e.metrics.Counter("seqlog_query_outcomes_total",
				l, metrics.Label{Key: "outcome", Value: out})
		}
		e.qout[fam] = outs
	}
	e.tables.SetMetrics(e.metrics)
	e.metrics.GaugeFunc("seqlog_activities", func() int64 {
		return int64(e.alphabet.Len())
	})
	e.metrics.GaugeFunc("seqlog_traces", func() int64 {
		n, err := e.tables.NumTraces(context.Background())
		if err != nil {
			return -1
		}
		return int64(n)
	})
	// Recovery is a fact about this open, not a moving value: set once.
	rec := e.Recovery()
	e.metrics.Gauge("seqlog_recovery_wal_replayed").Set(rec.WALReplayed)
	e.metrics.Gauge("seqlog_recovery_dropped_regions").Set(rec.DroppedRegions)
	var salv int64
	if rec.Salvaged {
		salv = 1
	}
	e.metrics.Gauge("seqlog_recovery_salvaged").Set(salv)
	// Ingest counters stay monotone when a failed pipeline is replaced:
	// IngestInfo folds the replaced ones into the live one.
	cum := func(pick func(IngestStats) int64) func() int64 {
		return func() int64 {
			if st := e.IngestInfo(); st != nil {
				return pick(*st)
			}
			return 0
		}
	}
	e.metrics.CounterFunc("seqlog_ingest_accepted_total", cum(func(s IngestStats) int64 { return s.Accepted }))
	e.metrics.CounterFunc("seqlog_ingest_flushed_total", cum(func(s IngestStats) int64 { return s.Flushed }))
	e.metrics.CounterFunc("seqlog_ingest_batches_total", cum(func(s IngestStats) int64 { return s.Batches }))
	e.metrics.CounterFunc("seqlog_ingest_syncs_total", cum(func(s IngestStats) int64 { return s.Syncs }))
	e.metrics.CounterFunc("seqlog_ingest_stalls_total", cum(func(s IngestStats) int64 { return s.Stalls }))
	e.metrics.CounterFunc("seqlog_ingest_scanned_events_total", cum(func(s IngestStats) int64 { return s.Scanned }))
	e.metrics.CounterFunc("seqlog_ingest_loaded_events_total", cum(func(s IngestStats) int64 { return s.Loaded }))
	e.metrics.GaugeFunc("seqlog_ingest_queued", cum(func(s IngestStats) int64 { return s.Queued }))
	e.metrics.GaugeFunc("seqlog_ingest_sessions", cum(func(s IngestStats) int64 { return s.Sessions }))
}

// track begins one query observation; defer the returned func with the
// method's named error:
//
//	defer e.track(famDetect, len(pattern))(&err)
//
// It feeds the per-family latency histogram and error counter, and — when a
// slow-query threshold is configured — emits one structured line with the
// family, pattern arity, rows scanned and duration. Rows scanned is a delta
// of the process-wide row counter: exact for serial queries, an approximation
// when queries overlap.
func (e *Engine) track(family string, arity int) func(*error) {
	start := time.Now()
	rows0 := e.tables.ReadRows()
	return func(errp *error) {
		d := time.Since(start)
		e.qdur[family].Observe(d)
		out := classifyOutcome(*errp)
		e.qout[family][out].Add(1)
		// Graceful truncation returned valid results; only real failures
		// count as errors.
		if *errp != nil && out != outTruncated {
			e.qerr[family].Add(1)
		}
		if e.slowLog != nil && d >= e.slowThresh {
			rows := e.tables.ReadRows() - rows0
			// On a replica the replication position contextualises the
			// line: a slow query during a resync or far behind the primary
			// reads differently from one on a caught-up follower.
			repl := ""
			if st := e.Replication(); st != nil {
				repl = fmt.Sprintf(" role=follower repl_state=%s repl_lag=%d", st.State, st.LagBytes)
			}
			if *errp != nil {
				e.slowLog.Printf("slow-query family=%s arity=%d rows=%d duration=%s%s err=%q",
					family, arity, rows, d, repl, (*errp).Error())
			} else {
				e.slowLog.Printf("slow-query family=%s arity=%d rows=%d duration=%s%s",
					family, arity, rows, d, repl)
			}
		}
	}
}

// restoreMeta reads how the store was built — policy, order and shard
// count — and reconciles it with the Config: a zero value takes the stored
// one, a disagreeing one fails. It pins what a new store does not hold yet
// (not on a read-only engine, whose primary pins them) and restores the
// interned alphabet.
func (e *Engine) restoreMeta() error {
	rule, policy, order, err := e.storedRule()
	if err != nil {
		return err
	}
	if e.cfg.Policy != "" {
		want, err := model.ParsePolicy(e.cfg.Policy)
		if err != nil {
			return err
		}
		if policy != "" && want != rule.Policy {
			return fmt.Errorf("seqlog: store was indexed with policy %v, engine configured for %v", rule.Policy, want)
		}
		rule.Policy = want
	}
	if e.cfg.PartialOrder {
		if order != "" && !rule.PartialOrder {
			return fmt.Errorf("seqlog: store was indexed with %s order, engine configured for partial", order)
		}
		rule.PartialOrder = true
	}
	if err := rule.Validate(); err != nil {
		return fmt.Errorf("seqlog: %w", err)
	}
	// The routing hash is a pure function of (key, shards), so opening
	// with a different count would silently look up keys on the wrong
	// shard. (Legacy single-store directories without the key adopt 1.)
	shards := strconv.Itoa(e.tables.NumShards())
	raw, _, err := e.tables.GetMeta(metaShards)
	if err != nil {
		return err
	}
	if stored := string(raw); stored != "" && stored != shards {
		return fmt.Errorf("seqlog: store was created with %s shard(s), engine configured for %s", stored, shards)
	}
	mode := "total"
	if rule.PartialOrder {
		mode = "partial"
	}
	if !e.cfg.ReadOnly {
		pins := make(map[string][]byte)
		for _, pin := range []struct{ key, stored, value string }{
			{metaPolicy, policy, rule.Policy.String()},
			{metaPartial, order, mode},
			{metaShards, string(raw), shards},
		} {
			if pin.stored == "" {
				pins[pin.key] = []byte(pin.value)
			}
		}
		// Not waited on: WAL order puts the pins before every later group,
		// so the first acked write's fsync covers them.
		if _, err := e.tables.Commit("", &storage.Delta{Meta: pins}); err != nil {
			return err
		}
	}
	e.built.Store(&rule)
	raw, ok, err := e.tables.GetMeta(metaAlphabet)
	if err != nil {
		return err
	}
	if ok && len(raw) > 0 {
		for _, name := range strings.Split(string(raw), "\x00") {
			e.alphabet.ID(name)
		}
	}
	e.persistedActs = e.alphabet.Len()
	return nil
}

// storedRule reads the pair rule the store pins, and the raw policy and
// order values: "" for a key the store does not hold yet, which reads as
// the default, STNM or total order.
func (e *Engine) storedRule() (rule pairs.Rule, policy, order string, err error) {
	rawPolicy, _, err := e.tables.GetMeta(metaPolicy)
	if err != nil {
		return rule, "", "", err
	}
	rawOrder, _, err := e.tables.GetMeta(metaPartial)
	if err != nil {
		return rule, "", "", err
	}
	policy, order = string(rawPolicy), string(rawOrder)
	rule.Policy, err = model.ParsePolicy(cmp.Or(policy, "STNM"))
	rule.PartialOrder = order == "partial"
	return rule, policy, order, err
}

// rule is how the store was built: its pair policy and order.
func (e *Engine) rule() pairs.Rule { return *e.built.Load() }

func (e *Engine) alphabetRow() []byte {
	return []byte(strings.Join(e.alphabet.Names(), "\x00"))
}

// Ingest indexes a batch of new events (the periodic update of §3.1.3).
// Events may extend traces seen in earlier batches; the index never
// duplicates pairs across batches.
//
// A batch is appended to the engine's ingestion pipeline, which streams
// share, and is acknowledged once the cycle holding it is durable; the
// batch lands in one flush cycle, which each store commits as one
// crash-atomic WAL group. A batch the rule rejects (a partial-order batch
// reaching back into a trace, ErrReachesBack) writes nothing and fails alone.
func (e *Engine) Ingest(events []Event) (UpdateStats, error) {
	return e.IngestCtx(context.Background(), events)
}

// IngestCtx is Ingest with a caller context. ctx cancels only the wait for
// queue space, in which case nothing was admitted. An admitted batch is
// waited for until it is durable, so an error never hides a committed batch
// that a retry would index twice.
func (e *Engine) IngestCtx(ctx context.Context, events []Event) (UpdateStats, error) {
	p, err := e.writer()
	if err != nil {
		return UpdateStats{}, err
	}
	t, err := p.AppendCtx(ctx, e.intern(events), true)
	if err == nil {
		err = p.FlushTo(context.Background(), t)
	}
	if err != nil {
		return UpdateStats{}, err
	}
	traces := make(map[int64]bool)
	for _, ev := range events {
		traces[ev.Trace] = true
	}
	return UpdateStats{Traces: len(traces), Events: len(events)}, nil
}

// syncDisks flushes and fsyncs every durable shard's WAL (no-op in memory).
// Engines over remote shard servers have no local disks; the sync request
// forwards through the backend to each shard server's store instead.
func (e *Engine) syncDisks() error {
	for _, d := range e.disks {
		if err := d.Sync(); err != nil {
			return err
		}
	}
	if len(e.disks) == 0 {
		if sy, ok := e.tables.(interface{ Sync() error }); ok {
			return sy.Sync()
		}
	}
	return nil
}

// IngestXES reads an XES document and ingests all its events as one batch.
func (e *Engine) IngestXES(r io.Reader) (UpdateStats, error) {
	log, err := eventlog.ReadXES(r)
	if err != nil {
		return UpdateStats{}, err
	}
	return e.ingestModelLog(log)
}

// IngestCSV reads trace,activity,timestamp rows and ingests them as one
// batch.
func (e *Engine) IngestCSV(r io.Reader) (UpdateStats, error) {
	log, err := eventlog.ReadCSV(r)
	if err != nil {
		return UpdateStats{}, err
	}
	return e.ingestModelLog(log)
}

func (e *Engine) ingestModelLog(log *model.Log) (UpdateStats, error) {
	names := log.Alphabet.Names()
	events := make([]Event, 0, log.NumEvents())
	for _, tr := range log.Traces {
		for _, ev := range tr.Events {
			events = append(events, Event{Trace: int64(tr.ID), Activity: names[ev.Activity], Time: int64(ev.TS)})
		}
	}
	return e.Ingest(events)
}

// pattern resolves names without interning; ok=false means some activity has
// never been ingested, so the pattern cannot occur. A lookup miss first
// re-reads the persisted alphabet: over a shared backend (a netshard fleet,
// DESIGN.md §13) another engine may have interned the activity after this
// one opened — without the reload a read-only query front-end would answer
// "never ingested" forever. The reload is one point meta read on the miss
// path only, and a no-op for exclusively-owned local stores, whose in-memory
// alphabet never trails the persisted one.
func (e *Engine) pattern(names []string) (model.Pattern, bool, error) {
	if len(names) == 0 {
		return nil, false, errors.New("seqlog: empty pattern")
	}
	if p, ok := model.LookupPattern(e.alphabet, names); ok {
		return p, true, nil
	}
	if err := e.reloadAlphabet(); err != nil {
		return nil, false, err
	}
	p, ok := model.LookupPattern(e.alphabet, names)
	return p, ok, nil
}

// reloadAlphabet re-interns the persisted alphabet. Writers persist names in
// ID order and only ever append, so every persisted list extends the one
// this engine last saw — replaying the full list keeps local IDs aligned
// with the store and with every other engine over the same backend.
func (e *Engine) reloadAlphabet() error {
	raw, ok, err := e.tables.GetMeta(metaAlphabet)
	if err != nil || !ok || len(raw) == 0 {
		return err
	}
	for _, name := range strings.Split(string(raw), "\x00") {
		e.alphabet.ID(name)
	}
	return nil
}

// activityName is the ID→name twin of pattern's retry: an ID read back from
// a shared backend that this engine's alphabet does not cover yet (another
// engine interned the activity after this one opened) reloads the persisted
// alphabet once instead of rendering as "?".
func (e *Engine) activityName(id model.ActivityID) (string, error) {
	if int(id) >= e.alphabet.Len() {
		if err := e.reloadAlphabet(); err != nil {
			return "", err
		}
	}
	return e.alphabet.Name(id), nil
}

// Detect returns every completion of the pattern in the indexed log. The
// index join (Algorithm 2) needs at least two activities; opts picks the
// scan or a time window instead.
//
// Cancellation and deadlines on ctx abort the query at its next cooperative
// check, and limits attached with WithLimits bound its work. Under
// Limits.Partial a tripped budget returns the matches found so far (for the
// scan: those of a prefix of the traces) together with a *BudgetError for
// which Truncated(err) is true.
func (e *Engine) Detect(ctx context.Context, patternNames []string, opts DetectOptions) (_ []Match, err error) {
	defer e.track(famDetect, len(patternNames))(&err)
	if err := opts.validate(len(patternNames)); err != nil {
		return nil, err
	}
	p, ok, err := e.pattern(patternNames)
	if err != nil || !ok {
		return nil, err
	}
	var ms []query.Match
	switch {
	case opts.Scan && e.rule().PartialOrder:
		ms, err = e.proc.DetectScanPartial(ctx, p)
	case opts.Scan:
		ms, err = e.proc.DetectScan(ctx, p, e.rule().Policy)
	case opts.Within > 0:
		ms, err = e.proc.DetectWithin(ctx, p, opts.Within)
	default:
		ms, err = e.proc.Detect(ctx, p)
	}
	if err != nil && !Truncated(err) {
		return nil, err
	}
	return convertMatches(ms), err
}

// Traces returns the distinct trace ids of ms in ascending order — the
// headline answer of the detection query ("return all traces that contain
// the given pattern", §3.2.1).
func Traces(ms []Match) []int64 {
	var ids []int64
	for _, m := range ms {
		ids = append(ids, m.Trace)
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// convertMatches copies ms into one flat buffer of times; each Match holds a
// cap-limited window of it, so an answer costs two allocations, not two per
// match, and an append to one Match's Times never reaches the next.
func convertMatches(ms []query.Match) []Match {
	n := 0
	for _, m := range ms {
		n += len(m.Timestamps)
	}
	out := make([]Match, len(ms))
	flat := make([]int64, n)
	for i, m := range ms {
		times := flat[:len(m.Timestamps):len(m.Timestamps)]
		flat = flat[len(m.Timestamps):]
		for j, ts := range m.Timestamps {
			times[j] = int64(ts)
		}
		out[i] = Match{Trace: int64(m.Trace), Times: times}
	}
	return out
}

// Stats answers the Statistics query for the pattern. Aggregates cannot be
// soundly truncated, so under a budget this family always errors —
// Limits.Partial is ignored here.
func (e *Engine) Stats(ctx context.Context, patternNames []string, opts StatsOptions) (_ PatternStats, err error) {
	defer e.track(famStats, len(patternNames))(&err)
	if err := opts.validate(len(patternNames)); err != nil {
		return PatternStats{}, err
	}
	// Unknown activities (ok=false): the pattern provably has zero
	// completions.
	p, ok, err := e.pattern(patternNames)
	if err != nil || !ok {
		return PatternStats{}, err
	}
	stats := e.proc.Stats
	if opts.AllPairs {
		stats = e.proc.StatsAllPairs
	}
	st, err := stats(ctx, p)
	if err != nil {
		return PatternStats{}, err
	}
	return e.convertStats(st), nil
}

func (e *Engine) convertStats(st query.PatternStats) PatternStats {
	out := PatternStats{
		MaxCompletions:    st.MaxCompletions,
		EstimatedDuration: st.EstimatedDuration,
	}
	for _, ps := range st.Pairs {
		out.Pairs = append(out.Pairs, PairStats{
			First:          e.alphabet.Name(ps.First),
			Second:         e.alphabet.Name(ps.Second),
			Completions:    ps.Completions,
			AvgDuration:    ps.AvgDuration,
			LastCompletion: int64(ps.LastCompletion),
		})
	}
	return out
}

// Explore answers the pattern-continuation query with the strategy opts
// selects, proposing events after the pattern or, with opts.Position, at
// that position (the insert case is its own metric family,
// explore_insert). Rankings cannot be soundly truncated, so under a budget
// this family always errors — the budget applies to each candidate
// verification, charged what one detection of the extended pattern charges
// (see Stats for the aggregate rationale).
func (e *Engine) Explore(ctx context.Context, patternNames []string, opts ExploreOptions) (_ []Proposal, err error) {
	family := famExplore
	if opts.Position != nil {
		family = famInsert
	}
	defer e.track(family, len(patternNames))(&err)
	if err := opts.validate(len(patternNames)); err != nil {
		return nil, err
	}
	p, ok, err := e.pattern(patternNames)
	if err != nil || !ok {
		return nil, err
	}
	qopts := query.ExploreOptions{TopK: opts.TopK, MaxAvgGap: opts.MaxAvgGap}
	var props []query.Proposal
	if opts.Position != nil {
		props, err = e.exploreInsert(ctx, p, *opts.Position, opts.Mode, qopts)
	} else {
		switch opts.Mode {
		case Accurate:
			props, err = e.proc.ExploreAccurate(ctx, p, qopts)
		case Fast:
			props, err = e.proc.ExploreFast(ctx, p, qopts)
		default: // Hybrid, also for the empty mode
			props, err = e.proc.ExploreHybrid(ctx, p, qopts)
		}
	}
	if err != nil {
		return nil, err
	}
	return e.proposals(props)
}

// proposals renders the query layer's proposals with activity names.
func (e *Engine) proposals(props []query.Proposal) ([]Proposal, error) {
	out := make([]Proposal, len(props))
	for i, pr := range props {
		name, err := e.activityName(pr.Event)
		if err != nil {
			return nil, err
		}
		out[i] = Proposal{
			Activity:    name,
			Completions: pr.Completions,
			AvgDuration: pr.AvgDuration,
			Score:       pr.Score,
			Exact:       pr.Exact,
		}
	}
	return out, nil
}

// exploreInsert is Explore's §7 insert path: proposals for an event at
// position pos of the pattern.
func (e *Engine) exploreInsert(ctx context.Context, p model.Pattern, pos int, mode ExploreMode, opts query.ExploreOptions) ([]query.Proposal, error) {
	var alphabet []model.ActivityID
	if pos == 0 {
		// A leading insert tries every known activity; reload first so a
		// read replica proposes activities first ingested after it opened.
		if err := e.reloadAlphabet(); err != nil {
			return nil, err
		}
		alphabet = make([]model.ActivityID, e.alphabet.Len())
		for i := range alphabet {
			alphabet[i] = model.ActivityID(i)
		}
	}
	switch mode {
	case Accurate:
		return e.proc.ExploreInsertAccurate(ctx, p, pos, alphabet, opts)
	case Fast:
		return e.proc.ExploreInsertFast(ctx, p, pos, alphabet, opts)
	default: // Hybrid, also for the empty mode
		return e.proc.ExploreInsertHybrid(ctx, p, pos, alphabet, opts)
	}
}

// PruneTraces forgets the mutable state of completed traces (their Seq
// rows); their history stays queryable in the index and the statistics.
func (e *Engine) PruneTraces(ids []int64) error {
	if err := e.readOnlyErr(); err != nil {
		return err
	}
	conv := make([]model.TraceID, len(ids))
	for i, id := range ids {
		conv[i] = model.TraceID(id)
	}
	// Flush the stream first so pending events of the pruned traces are
	// committed (not resurrected by a later flush), then drop their
	// resident sessions.
	e.pipeMu.Lock()
	p := e.pipeline
	e.pipeMu.Unlock()
	if p != nil {
		if err := p.Flush(); err != nil {
			return err
		}
	}
	var err error
	e.mu.Lock()
	for _, id := range conv {
		if err = e.tables.DeleteSeq(id); err != nil {
			break
		}
	}
	e.mu.Unlock()
	if err == nil && p != nil {
		p.Forget(conv)
	}
	return err
}

// RotatePeriod directs subsequent batches into a new index partition
// (§3.1.3 suggests e.g. one per month); queries keep spanning all
// partitions. Open streams carry on: every event appended before the call
// is flushed into the old partition first, and the cycles after it go to
// the new one.
func (e *Engine) RotatePeriod(period string) error {
	if err := e.readOnlyErr(); err != nil {
		return err
	}
	e.pipeMu.Lock()
	defer e.pipeMu.Unlock()
	e.cfg.Period = period
	if p := e.pipeline; p != nil {
		// A flush that fails leaves a failed pipeline, whose successor
		// takes the period from cfg.
		if p.Flush() == nil {
			p.SetPeriod(period)
		}
	}
	return nil
}

// DropPeriod retires a whole index partition.
func (e *Engine) DropPeriod(period string) error {
	if err := e.readOnlyErr(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tables.DropPeriod(period)
}

// Periods lists the named index partitions.
func (e *Engine) Periods() ([]string, error) { return e.tables.Periods(context.Background()) }

// TraceEvents returns the stored (unpruned) event sequence of a trace.
func (e *Engine) TraceEvents(id int64) ([]Event, bool, error) {
	events, ok, err := e.tables.GetSeq(context.Background(), model.TraceID(id))
	if err != nil || !ok {
		return nil, false, err
	}
	out := make([]Event, len(events))
	for i, ev := range events {
		name, err := e.activityName(ev.Activity)
		if err != nil {
			return nil, false, err
		}
		out[i] = Event{Trace: id, Activity: name, Time: int64(ev.TS)}
	}
	return out, true, nil
}

// CacheStats are the decoded-postings cache counters of the query hot path.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
}

// CacheStats reports the postings-cache counters (all zero when the cache
// is disabled via Config.CacheBytes < 0).
func (e *Engine) CacheStats() CacheStats {
	return CacheStats(e.tables.CacheStats())
}

// SegmentStats describes the immutable postings tier of a durable engine:
// how many segment files are live (one per store once frozen), the runs,
// entries and bytes they hold, and how many freezes produced a new segment
// since open.
type SegmentStats struct {
	Segments int   `json:"segments"`
	Rows     int64 `json:"rows"`
	Entries  int64 `json:"entries"`
	Bytes    int64 `json:"bytes"`
	Freezes  int64 `json:"freezes"`
}

// SegmentStats reports the immutable-tier shape (all zero before the first
// freeze or on in-memory engines).
func (e *Engine) SegmentStats() SegmentStats {
	return SegmentStats(e.tables.SegmentStats())
}

// RecoveryInfo describes what crash recovery found when a durable engine
// was opened; the zero value means a clean start (or an in-memory engine).
type RecoveryInfo struct {
	SnapshotRecords int64 `json:"snapshotRecords,omitempty"`
	WALReplayed     int64 `json:"walReplayed,omitempty"`
	TornTailBytes   int64 `json:"tornTailBytes,omitempty"`
	StaleWALBytes   int64 `json:"staleWALBytes,omitempty"`
	DroppedRegions  int64 `json:"droppedRegions,omitempty"`
	DroppedBytes    int64 `json:"droppedBytes,omitempty"`

	// UncommittedBatchBytes counts WAL bytes of ingest group-commits whose
	// commit marker never made it to disk; they are rolled back on open.
	UncommittedBatchBytes int64 `json:"uncommittedBatchBytes,omitempty"`

	Salvaged bool `json:"salvaged,omitempty"`
}

// Degraded reports whether recovery lost possibly-committed data (only ever
// true after a Salvage open).
func (r RecoveryInfo) Degraded() bool { return r.Salvaged }

// Recovery reports the crash-recovery outcome of this engine's store.
func (e *Engine) Recovery() RecoveryInfo {
	return RecoveryInfo(e.tables.Recovery())
}

// IndexInfo summarises the indexing database: live traces, activities, the
// distinct-pair count of every partition, the postings-cache counters and
// the crash-recovery outcome.
type IndexInfo struct {
	Traces     int            `json:"traces"`
	Activities int            `json:"activities"`
	Policy     string         `json:"policy"`
	Shards     int            `json:"shards"`
	Partitions map[string]int `json:"partitions"` // partition -> distinct pairs ("" = default)
	Cache      CacheStats     `json:"cache"`
	// Segments describes the immutable postings tier (all zero when no
	// freeze has run).
	Segments SegmentStats `json:"segments"`
	Recovery RecoveryInfo `json:"recovery"`
	Degraded bool         `json:"degraded"`
	// Ingest reports the ingestion-pipeline counters, which count Ingest
	// batches and stream appends alike; nil before the first write.
	Ingest *IngestStats `json:"ingest,omitempty"`
	// Role is this engine's replication role: "follower" while tailing a
	// primary, "primary" otherwise.
	Role string `json:"role"`
	// Replication is the follower's position (nil on a primary).
	Replication *replica.Stats `json:"replication,omitempty"`
}

// Info reports the current index shape.
func (e *Engine) Info() (IndexInfo, error) {
	info := IndexInfo{
		Activities:  e.alphabet.Len(),
		Policy:      e.rule().Policy.String(),
		Shards:      e.tables.NumShards(),
		Partitions:  make(map[string]int),
		Cache:       e.CacheStats(),
		Segments:    SegmentStats(e.tables.SegmentStats()),
		Recovery:    e.Recovery(),
		Ingest:      e.IngestInfo(),
		Role:        e.Role(),
		Replication: e.Replication(),
	}
	info.Degraded = info.Recovery.Degraded()
	ctx := context.Background()
	var err error
	if info.Traces, err = e.tables.NumTraces(ctx); err != nil {
		return IndexInfo{}, err
	}
	n, err := e.tables.NumIndexedPairs(ctx, "")
	if err != nil {
		return IndexInfo{}, err
	}
	if n > 0 {
		info.Partitions[""] = n
	}
	periods, err := e.tables.Periods(ctx)
	if err != nil {
		return IndexInfo{}, err
	}
	for _, p := range periods {
		if n, err = e.tables.NumIndexedPairs(ctx, p); err != nil {
			return IndexInfo{}, err
		}
		info.Partitions[p] = n
	}
	return info, nil
}

// Activities returns all activity names seen so far.
func (e *Engine) Activities() []string { return e.alphabet.Names() }

// NumTraces returns the number of live (unpruned) traces.
func (e *Engine) NumTraces() (int, error) { return e.tables.NumTraces(context.Background()) }

// Compact folds every durable store into a fresh snapshot (no-op in
// memory). On a sharded engine the shards compact independently, one after
// the other, so at most one shard's write path is stalled at a time.
// Postings are frozen into segment files first, so the snapshot shrinks to
// metadata and sequences.
func (e *Engine) Compact() error {
	if len(e.disks) > 0 && !e.cfg.ReadOnly {
		// A read replica never freezes locally: its segment files must stay
		// byte-identical to the primary's, and the store-level compaction
		// below is local housekeeping that does not change contents.
		if err := e.Freeze(); err != nil {
			return err
		}
	}
	for _, d := range e.disks {
		if err := d.Compact(); err != nil {
			return err
		}
	}
	return nil
}

// Freeze folds the memtable postings tier of every store into an immutable
// block-compressed segment file, atomically switching each store's
// reference and dropping the folded rows from its WAL-backed state, which
// caps WAL replay and snapshot size as the index grows. Every durable store
// freezes before each automatic compaction and Compact freezes first, so a
// store that never froze does so on its first compaction. Queries are
// answered consistently throughout; a crash at any point loses nothing.
// Returns storage.ErrSegmentsDisabled on engines without a durable
// directory.
func (e *Engine) Freeze() error {
	if err := e.readOnlyErr(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tables.FreezePostings()
}

// Sync flushes and fsyncs the write-ahead log(s) (no-op in memory). Ingest
// already commits durably before acknowledging a batch; Sync exists for
// callers that need a durability point outside ingestion, such as server
// shutdown.
func (e *Engine) Sync() error { return e.syncDisks() }

// Close releases the engine. Its ingestion pipeline is drained with a final
// group commit first, after which every Appender refuses; durable engines
// then flush their write-ahead log. Every shard is closed even if one
// fails; the first error wins.
func (e *Engine) Close() error {
	// Stop pulling from the primary first: the applier must not race the
	// store shutdown below.
	if e.follower != nil {
		e.follower.Stop()
	}
	var perr error
	e.pipeMu.Lock()
	if e.pipeline != nil {
		perr = e.pipeline.Close()
	}
	e.pipeMu.Unlock()
	var serr error
	for _, s := range e.stores {
		if err := s.Close(); err != nil && serr == nil {
			serr = err
		}
	}
	// Release segment mappings last: queries are done once the stores are
	// closed.
	if err := e.tables.Close(); err != nil && serr == nil {
		serr = err
	}
	if serr != nil {
		return serr
	}
	return perr
}
