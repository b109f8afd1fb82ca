package query

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Limits bounds the work of one query. Limits travel in the context (see
// WithLimits) rather than in every method signature: the processor reads
// them once at query start, so adding a knob never ripples through the call
// graph. The zero value means unbounded.
type Limits struct {
	// MaxRows caps the rows the query may examine (postings entries seeded,
	// chain probes, scanned events, count entries — the same work measure
	// the slow-query log reports). 0 disables the budget.
	MaxRows int64
	// Partial switches budget exhaustion from an error into graceful
	// degradation for the detect family: the query stops scanning, returns
	// every match already fully verified, and signals the cut with a
	// *BudgetError whose Partial flag is set. Aggregate families (stats,
	// exploration rankings) cannot be soundly truncated and ignore the
	// flag — their budget always errors.
	Partial bool
}

type limitsKey struct{}

// WithLimits attaches per-query work limits to the context.
func WithLimits(ctx context.Context, l Limits) context.Context {
	return context.WithValue(ctx, limitsKey{}, l)
}

// LimitsFrom returns the limits attached to ctx, or the zero (unbounded)
// value.
func LimitsFrom(ctx context.Context) Limits {
	l, _ := ctx.Value(limitsKey{}).(Limits)
	return l
}

// noPartial strips the partial-results flag from the limits in ctx:
// aggregate answers cannot be soundly truncated, so the families that
// produce them treat a tripped budget as an error even when the caller
// opted into partial mode.
func noPartial(ctx context.Context) context.Context {
	if l := LimitsFrom(ctx); l.Partial {
		l.Partial = false
		return WithLimits(ctx, l)
	}
	return ctx
}

// ErrBudgetExceeded is the sentinel every budget exhaustion matches:
// errors.Is(err, ErrBudgetExceeded) holds for any *BudgetError. Use
// errors.As to read the figures it carries.
var ErrBudgetExceeded = errors.New("query: row budget exceeded")

// BudgetError reports a query that hit its row budget: how many rows it
// had examined and how long it had been running. Partial marks the graceful
// variant — the results returned alongside it are valid (a subset of the
// full answer), the flag only signals the cut.
type BudgetError struct {
	Rows    int64
	Elapsed time.Duration
	Partial bool
}

func (e *BudgetError) Error() string {
	if e.Partial {
		return fmt.Sprintf("query: row budget exceeded after %d rows in %v (partial results returned)", e.Rows, e.Elapsed)
	}
	return fmt.Sprintf("query: row budget exceeded after %d rows in %v", e.Rows, e.Elapsed)
}

// Is makes errors.Is(err, ErrBudgetExceeded) match.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExceeded }

// errTruncated is the internal control-flow sentinel of partial mode: it
// unwinds the scan/join loops without discarding accumulated results. It
// never escapes the package.
var errTruncated = errors.New("query: truncated")

// checkEvery is the amortization interval of the cooperative checks: the
// hot loops poll ctx and the budget once per this many rows, so the
// per-row cost is one add, one subtract and one predictable branch. A
// canceled query therefore returns within a small multiple of the time one
// interval takes to process (microseconds of in-memory join work) — the
// bound the chaos harness asserts.
const checkEvery = 4096

// qstate is the per-query cooperative-check state: a countdown to the next
// ctx/budget poll plus the running row count. A nil *qstate is the legacy
// fast path — every method no-ops — so queries with a Background context
// and no limits pay a nil check and nothing else.
type qstate struct {
	ctx       context.Context
	done      <-chan struct{}
	limits    Limits
	start     time.Time
	rows      int64
	tick      int64
	truncated bool
}

// begin builds the per-query state, or nil when neither cancellation nor
// limits apply (the zero-overhead path). The countdown starts at 1, not
// checkEvery: the first step polls immediately, so a query arriving with an
// already-canceled context fails at its first unit of work instead of
// riding a full amortization interval for free.
func (q *Processor) begin(ctx context.Context) *qstate {
	l := LimitsFrom(ctx)
	if ctx.Done() == nil && l.MaxRows <= 0 {
		return nil
	}
	s := &qstate{ctx: ctx, done: ctx.Done(), limits: l, tick: 1}
	if l.MaxRows > 0 {
		s.start = time.Now()
	}
	return s
}

// context returns the query's context (Background on the nil fast path) —
// what the storage reads below receive.
func (s *qstate) context() context.Context {
	if s == nil {
		return context.Background()
	}
	return s.ctx
}

// step accounts n rows of work and, once the amortization interval
// elapses, polls ctx and the budget. It returns the context error on
// cancellation, *BudgetError on a tripped budget, errTruncated when the
// budget tripped in partial mode, and nil otherwise.
func (s *qstate) step(n int) error {
	if s == nil {
		return nil
	}
	s.rows += int64(n)
	s.tick -= int64(n)
	if s.tick > 0 {
		return nil
	}
	return s.poll()
}

// poll is the out-of-line slow path of step: reset the countdown, then
// check ctx and the budget.
func (s *qstate) poll() error {
	s.tick = checkEvery
	if s.done != nil {
		select {
		case <-s.done:
			return s.ctx.Err()
		default:
		}
	}
	if s.limits.MaxRows > 0 && s.rows > s.limits.MaxRows {
		if s.limits.Partial {
			s.truncated = true
			// The budget tripped once; disable it so the bounded tail work
			// (already-verified chains, the final sort) completes instead of
			// re-tripping. Cancellation checks stay live.
			s.limits.MaxRows = 0
			return errTruncated
		}
		return &BudgetError{Rows: s.rows, Elapsed: time.Since(s.start)}
	}
	return nil
}

// truncErr returns the *BudgetError (Partial set) describing a truncation
// observed during the query, or nil when the query completed fully. The
// results accompanying a non-nil return are valid partial results.
func (s *qstate) truncErr() error {
	if s == nil || !s.truncated {
		return nil
	}
	return &BudgetError{Rows: s.rows, Elapsed: time.Since(s.start), Partial: true}
}
