package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"seqlog"
	"seqlog/internal/server"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// exploreResponse mirrors the body of POST /explore.
type exploreResponse struct {
	Proposals []seqlog.Proposal `json:"proposals"`
}

// canonical re-encodes a response body through the product's own response
// types, so two bodies with the same meaning but different formatting
// compare equal.
func canonical(kind opKind, body []byte) ([]byte, error) {
	var v any
	switch kind {
	case opDetect:
		v = new(server.DetectResponse)
	case opStats:
		v = new(seqlog.PatternStats)
	case opExplore:
		v = new(exploreResponse)
	default:
		return nil, fmt.Errorf("no canonical form for %s", opKindNames[kind])
	}
	if err := json.Unmarshal(body, v); err != nil {
		return nil, err
	}
	return mustJSON(v), nil
}

// answerMatches reports whether body is the expected answer of t. The fast
// path is one CRC over the bytes, cheap enough to leave the generator under
// its CPU budget; only a mismatch pays for a decode, which forgives a change
// of formatting but not of content.
func answerMatches(t *template, body []byte) bool {
	body = bytes.TrimRight(body, "\n")
	if crc32.Checksum(body, castagnoli) == t.want {
		return true
	}
	canon, err := canonical(t.kind, body)
	return err == nil && crc32.Checksum(canon, castagnoli) == t.want
}

// lateLimit is how late an answer may be before it counts as failed.
const lateLimit = time.Second

// recorder collects what one client goroutine saw. Clients own theirs and
// the runner merges them after the window, so the hot loop takes no lock.
type recorder struct {
	lat       [numOpKinds][]float64 // ms, completed and correct ops only
	attempted int
	failed    int
	retries   int // reads sent a second time
	respBytes int64
	firstFail string
}

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if r.firstFail == "" {
		r.firstFail = fmt.Sprintf(format, args...)
	}
}

func (r *recorder) merge(o *recorder) {
	for k := range r.lat {
		r.lat[k] = append(r.lat[k], o.lat[k]...)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.retries += o.retries
	r.respBytes += o.respBytes
	if r.firstFail == "" {
		r.firstFail = o.firstFail
	}
}

func (r *recorder) completed() int {
	n := 0
	for k := range r.lat {
		n += len(r.lat[k])
	}
	return n
}

// percentile returns the q-th quantile (0..1) of xs by nearest rank; xs is
// sorted in place. An empty sample yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func total(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return total(xs) / float64(len(xs))
}

// client is one HTTP connection's worth of load generator state.
type client struct {
	http *http.Client
	base string
	buf  bytes.Buffer
}

// post sends t and leaves the response body in c.buf.
func (c *client) post(t *template) (status int, err error) {
	req, err := http.NewRequest(http.MethodPost, c.base+opPaths[t.kind], bytes.NewReader(t.body))
	if err != nil {
		return 0, err
	}
	if t.kind == opStream {
		req.Header.Set("Content-Type", "application/x-ndjson")
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// checkFn judges a 200 answer; it returns "" when the answer is right.
type checkFn func(t *template, body []byte) string

func exactAnswer(t *template, body []byte) string {
	if !t.hasWant {
		return "no expected answer for " + string(t.body)
	}
	if !answerMatches(t, body) {
		got := bytes.TrimSpace(body)
		if len(got) > 300 {
			got = append(got[:300:300], "..."...)
		}
		return fmt.Sprintf("wrong answer for %s %s: %s", opPaths[t.kind], t.body, got)
	}
	return ""
}

// ackedAll checks an ingest ack: /ingest answers the batch statistics,
// /ingest/stream the accepted count; both must cover every event sent.
func ackedAll(t *template, body []byte) string {
	var ack struct {
		Events   int
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return "unreadable ingest ack: " + err.Error()
	}
	if ack.Events != len(t.evs) && ack.Accepted != len(t.evs) {
		return fmt.Sprintf("ack covers %d events, sent %d", ack.Events+ack.Accepted, len(t.evs))
	}
	return ""
}

// run sends t, times it from start, and records the outcome. A read that is
// not answered 200 is sent once more, as a client of an idempotent query
// would; the retry is counted, the time it cost stays in the latency, and the
// read fails only if the second answer is no better. Writes are never resent.
func (c *client) run(t *template, start time.Time, rec *recorder, check checkFn) {
	rec.attempted++
	status, err := c.post(t)
	if (err != nil || status != http.StatusOK) && t.kind <= opExplore {
		rec.retries++
		status, err = c.post(t)
	}
	elapsed := time.Since(start)
	switch {
	case err != nil:
		rec.fail("%s: %v", opPaths[t.kind], err)
	case status != http.StatusOK:
		rec.fail("%s: HTTP %d: %s", opPaths[t.kind], status, bytes.TrimSpace(c.buf.Bytes()))
	case elapsed > lateLimit:
		rec.fail("%s: answered after %s", opPaths[t.kind], elapsed)
	default:
		if why := check(t, c.buf.Bytes()); why != "" {
			rec.fail("%s", why)
			return
		}
		rec.respBytes += int64(c.buf.Len())
		rec.lat[t.kind] = append(rec.lat[t.kind], float64(elapsed)/float64(time.Millisecond))
	}
}

// closedLoop runs n clients that each send their next op when the previous
// one is answered. Ops come from one shared cursor over ops (wrapping; nil
// means the templates in order), so the sequence sent is the seeded one
// whatever the interleaving. It stops at maxOps ops (when > 0) or at the
// deadline, whichever is set, and returns the merged record and the wall
// time covered.
func closedLoop(hc *http.Client, base string, templates []*template, ops []int32, clients, maxOps int, window time.Duration, check checkFn) (*recorder, time.Duration) {
	var cursor atomic.Int64
	recs := make([]*recorder, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for i := range recs {
		recs[i] = &recorder{}
		wg.Add(1)
		go func(rec *recorder) {
			defer wg.Done()
			c := &client{http: hc, base: base}
			for {
				n := cursor.Add(1) - 1
				if maxOps > 0 && n >= int64(maxOps) {
					return
				}
				now := time.Now()
				if maxOps <= 0 && !now.Before(deadline) {
					return
				}
				t := templates[n%int64(len(templates))]
				if ops != nil {
					t = templates[ops[n%int64(len(ops))]]
				}
				c.run(t, now, rec, check)
			}
		}(recs[i])
	}
	wg.Wait()
	total := &recorder{}
	for _, r := range recs {
		total.merge(r)
	}
	return total, time.Since(start)
}

// openLoop sends ops on a fixed schedule, one every interval, whether or not
// earlier ones were answered, and times each from when it was due, so a stall
// is charged to every request it delays. workers bounds the requests in
// flight; workers == 1 keeps the ops strictly in order (the writer needs
// that: a trace's events must arrive in time order). late collects how far
// behind schedule each send started.
func openLoop(hc *http.Client, base string, next func(i int) *template, n int, interval time.Duration, workers int, check checkFn) (rec *recorder, late []float64) {
	type job struct {
		t   *template
		due time.Time
	}
	jobs := make(chan job, n) // sized to the number of sends: the scheduler never blocks
	recs := make([]*recorder, workers)
	lates := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := range recs {
		recs[w] = &recorder{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := &client{http: hc, base: base}
			for j := range jobs {
				lates[w] = append(lates[w], float64(time.Since(j.due))/float64(time.Millisecond))
				c.run(j.t, j.due, recs[w], check)
			}
		}(w)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		jobs <- job{t: next(i), due: due}
	}
	close(jobs)
	wg.Wait()
	rec = &recorder{}
	for w := range recs {
		rec.merge(recs[w])
		late = append(late, lates[w]...)
	}
	return rec, late
}
