package netshard

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"seqlog/internal/kvstore"
	"seqlog/internal/metrics"
	"seqlog/internal/model"
	"seqlog/internal/storage"
)

// Options tune a shard client.
type Options struct {
	// Shard is the shard number this client serves, used as the metrics
	// label (seqlog_netshard_rpc_seconds{shard="N",op="..."}).
	Shard int
	// MaxFrame caps one inbound response frame (DefaultMaxFrame when 0).
	MaxFrame int
	// PoolSize bounds concurrent connections to the server (default 4);
	// excess RPCs queue on a semaphore.
	PoolSize int
	// DialTimeout bounds each dial (default 5s).
	DialTimeout time.Duration
	// StatusTTL is how long cached server stats (CacheStats, SegmentStats,
	// Recovery) stay fresh before the next call re-fetches them (default
	// 1s). Stats feed metrics scrapes, not query results, so staleness is
	// harmless and keeps scrapes from hammering the server.
	StatusTTL time.Duration
	// Dialer overrides the TCP dialer (tests inject chaos proxies without
	// touching routing). nil uses net.Dialer.
	Dialer func(ctx context.Context, addr string) (net.Conn, error)
}

// Client implements storage.Backend against one remote shard server. Reads
// are ctx-first and cancellable mid-RPC: a context.AfterFunc trips the
// connection deadline the moment ctx is done, so cancel latency is bounded
// by a socket wakeup, not a response arrival; the interrupted connection is
// discarded and the caller sees ctx.Err(). Writes follow the Backend
// contract (context-free): Commit ships a batch as one commit group, which
// the server writes through its store's own Tables.Commit — one group commit
// per remote store, acked after its fsync.
type Client struct {
	addr string
	opts Options

	mu     sync.Mutex
	idle   []*cconn
	closed bool
	sem    chan struct{}

	rows       atomic.Int64 // rows decoded from responses (ReadRows proxy)
	reconnects atomic.Int64 // dials after the first
	rpcErrs    atomic.Int64
	inflight   atomic.Int64
	dialed     atomic.Bool

	stMu sync.Mutex
	st   statusSnapshot
	stAt time.Time

	hists [opMax]*metrics.Histogram // nil until SetMetrics
}

type statusSnapshot struct {
	cache    storage.CacheStats
	seg      storage.SegmentStats
	rec      kvstore.RecoveryStats
	readRows int64
}

type cconn struct {
	c    net.Conn
	rbuf []byte
}

var _ storage.Backend = (*Client)(nil)

// Dial connects to a shard server, performs the hello exchange and returns
// a ready client. The initial connection is kept in the pool.
func Dial(addr string, opts Options) (*Client, error) {
	if opts.MaxFrame <= 0 {
		opts.MaxFrame = DefaultMaxFrame
	}
	if opts.PoolSize <= 0 {
		opts.PoolSize = 4
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	if opts.StatusTTL <= 0 {
		opts.StatusTTL = time.Second
	}
	c := &Client{
		addr: addr,
		opts: opts,
		sem:  make(chan struct{}, opts.PoolSize),
	}
	ctx, cancel := context.WithTimeout(context.Background(), opts.DialTimeout)
	defer cancel()
	cc, err := c.dial(ctx)
	if err != nil {
		return nil, err
	}
	c.put(cc)
	return c, nil
}

// Addr returns the shard server address this client talks to.
func (c *Client) Addr() string { return c.addr }

func (c *Client) dial(ctx context.Context) (*cconn, error) {
	dial := c.opts.Dialer
	if dial == nil {
		d := &net.Dialer{}
		dial = func(ctx context.Context, addr string) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	dctx, cancel := context.WithTimeout(ctx, c.opts.DialTimeout)
	defer cancel()
	conn, err := dial(dctx, c.addr)
	if err != nil {
		return nil, &OpError{Addr: c.addr, Op: "dial", Err: err}
	}
	if dl, ok := dctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	if err := writeHello(conn); err != nil {
		conn.Close()
		return nil, &OpError{Addr: c.addr, Op: "hello", Err: err}
	}
	if err := readHello(conn); err != nil {
		conn.Close()
		return nil, &OpError{Addr: c.addr, Op: "hello", Err: err}
	}
	conn.SetDeadline(time.Time{})
	if c.dialed.Swap(true) {
		c.reconnects.Add(1)
	}
	return &cconn{c: conn}, nil
}

func (c *Client) put(cc *cconn) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cc.c.Close()
		return
	}
	c.idle = append(c.idle, cc)
	c.mu.Unlock()
}

// conn returns a pooled connection or dials a fresh one. pooled reports
// which: a pooled connection may have died while idle (server restart), so
// request-write failures on one are retried on a fresh dial.
func (c *Client) conn(ctx context.Context) (cc *cconn, pooled bool, err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false, ErrClosed
	}
	if n := len(c.idle); n > 0 {
		cc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cc, true, nil
	}
	c.mu.Unlock()
	cc, err = c.dial(ctx)
	return cc, false, err
}

// flushIdle drops every pooled connection: once one idle conn proves dead,
// its poolmates are from the same dead epoch.
func (c *Client) flushIdle() {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, cc := range idle {
		cc.c.Close()
	}
}

// Close severs every pooled connection; later calls fail ErrClosed. Safe to
// call more than once.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, cc := range idle {
		cc.c.Close()
	}
	return nil
}

// do runs one RPC: acquire a pool slot, check out a connection, write the
// request frame, consume response frames through onBody (called once per
// stOK/stMore frame body, in order). Transport failures poison the
// connection and come back as *OpError — or as ctx.Err() verbatim when the
// context fired, so cancellation is indistinguishable from a local
// backend's. Server-reported errors keep the connection and come back with
// the server's message verbatim.
func (c *Client) do(ctx context.Context, op byte, req []byte, onBody func([]byte) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.inflight.Add(1)
	start := time.Now()
	defer func() {
		c.inflight.Add(-1)
		if h := c.hists[op]; h != nil {
			h.Observe(time.Since(start))
		}
	}()
	select {
	case c.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-c.sem }()
	for attempt := 0; ; attempt++ {
		cc, pooled, err := c.conn(ctx)
		if err != nil {
			c.rpcErrs.Add(1)
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		err, keep, stale := c.roundTrip(ctx, cc, op, req, onBody)
		if keep {
			c.put(cc)
		} else {
			cc.c.Close()
		}
		// A request-write failure on a pooled connection means the server
		// never saw a complete frame — the conn simply died while idle
		// (server restart). Safe to retry any op once on a fresh dial.
		if stale && pooled && attempt == 0 {
			c.flushIdle()
			continue
		}
		if err != nil {
			c.rpcErrs.Add(1)
		}
		return err
	}
}

// roundTrip performs the frame exchange on one connection. keep reports
// whether the connection is still in a known-good protocol state; stale
// reports that the request frame itself failed to write without the context
// firing — the server never received the request, so the caller may safely
// retry on another connection.
func (c *Client) roundTrip(ctx context.Context, cc *cconn, op byte, req []byte, onBody func([]byte) error) (err error, keep, stale bool) {
	if ctx.Done() != nil {
		// Trip the in-flight read/write the moment ctx is done: bounded
		// cancel latency without waiting for the server's next frame.
		tripped := make(chan struct{})
		stop := context.AfterFunc(ctx, func() {
			cc.c.SetDeadline(time.Unix(1, 0))
			close(tripped)
		})
		defer func() {
			if !stop() {
				// The trip already started, possibly after a successful
				// exchange: wait it out and drop the connection, or its past
				// deadline would fail whichever request reuses it.
				<-tripped
				keep = false
			}
		}()
	}
	xerr := func(e error) (error, bool, bool) {
		if ctx.Err() != nil {
			return ctx.Err(), false, false
		}
		return &OpError{Addr: c.addr, Op: opName(op), Err: e}, false, false
	}
	frame := make([]byte, 0, 1+len(req))
	frame = append(frame, op)
	frame = append(frame, req...)
	if err := writeFrame(cc.c, frame); err != nil {
		if ctx.Err() != nil {
			return ctx.Err(), false, false
		}
		return &OpError{Addr: c.addr, Op: opName(op), Err: err}, false, true
	}
	for {
		payload, err := readFrame(connReader{cc.c}, cc.rbuf, uint32(c.opts.MaxFrame))
		if err != nil {
			return xerr(err)
		}
		cc.rbuf = payload[:0]
		st, body := payload[0], payload[1:]
		switch st {
		case stErr:
			if len(body) < 1 {
				return xerr(ErrBadFrame)
			}
			// The connection is clean: an error response completes the
			// exchange.
			return &remoteError{code: body[0], msg: string(body[1:])}, true, false
		case stMore, stOK:
			if len(body) > 0 {
				if fnErr := onBody(body); fnErr != nil {
					// On the final frame the exchange is complete and the
					// connection stays good; mid-stream the server is still
					// sending, so drop the connection rather than drain it.
					// Either way the callback's error is the caller's (scan
					// early-stop contract).
					return fnErr, st == stOK, false
				}
			}
			if st == stOK {
				return nil, true, false
			}
		default:
			return xerr(fmt.Errorf("%w: unknown status %d", ErrBadFrame, st))
		}
	}
}

// connReader adapts net.Conn for readFrame without a bufio layer: response
// frames arrive back-to-back per RPC and the frame reader already reads in
// exactly-sized chunks.
type connReader struct{ c net.Conn }

func (r connReader) Read(p []byte) (int, error) { return r.c.Read(p) }

// call is the unary wrapper: at most one response body expected.
func (c *Client) call(ctx context.Context, op byte, req []byte) ([]byte, error) {
	var out []byte
	err := c.do(ctx, op, req, func(b []byte) error {
		out = append(out, b...) // copy: b aliases the pooled read buffer
		return nil
	})
	return out, err
}

// write sends one mutation outside any commit group.
func (c *Client) write(op byte, body []byte) error {
	_, err := c.call(context.Background(), op, body)
	return err
}

// ---- storage.Backend: Commit ------------------------------------------------

// Commit ships d as one commit group, encoded by appendDelta. The server
// writes it through its own storage.Tables.Commit and answers once the
// group is durable, so the handle is kvstore.Durable.
func (c *Client) Commit(period string, d *storage.Delta) ([]kvstore.Durability, error) {
	if d.Empty() {
		return []kvstore.Durability{nil}, nil
	}
	if err := c.commit(appendDelta(nil, period, d)); err != nil {
		return nil, err
	}
	return []kvstore.Durability{kvstore.Durable}, nil
}

// ---- storage.Backend: Seq table ---------------------------------------------

// GetSeq reads the trace's stored sequence.
func (c *Client) GetSeq(ctx context.Context, id model.TraceID) ([]model.TraceEvent, bool, error) {
	var w wbuf
	w.u64(uint64(id))
	resp, err := c.call(ctx, opGetSeq, w.b)
	if err != nil {
		return nil, false, err
	}
	r := &rbuf{b: resp}
	ok := r.bool1()
	row := r.blob()
	if err := r.done(); err != nil {
		return nil, false, &OpError{Addr: c.addr, Op: opName(opGetSeq), Err: err}
	}
	if !ok {
		return nil, false, nil
	}
	events, err := storage.DecodeSeqRow(row)
	if err != nil {
		return nil, false, err
	}
	c.rows.Add(int64(len(events)))
	return events, true, nil
}

// DeleteSeq prunes the trace's Seq row.
func (c *Client) DeleteSeq(id model.TraceID) error {
	var w wbuf
	w.u64(uint64(id))
	return c.write(opDeleteSeq, w.b)
}

// ScanSeq streams every Seq row; fn errors stop the scan (and discard the
// connection, since the server may still be sending).
func (c *Client) ScanSeq(ctx context.Context, fn func(model.TraceID, []model.TraceEvent) error) error {
	return c.do(ctx, opScanSeq, nil, func(body []byte) error {
		r := &rbuf{b: body}
		for !r.empty() {
			id := model.TraceID(r.u64())
			row := r.blob()
			if r.err != nil {
				return r.err
			}
			events, err := storage.DecodeSeqRow(row)
			if err != nil {
				return err
			}
			c.rows.Add(int64(len(events)))
			if err := fn(id, events); err != nil {
				return err
			}
		}
		return r.done()
	})
}

// NumTraces counts the remote store's Seq rows.
func (c *Client) NumTraces(ctx context.Context) (int, error) {
	resp, err := c.call(ctx, opNumTraces, nil)
	if err != nil {
		return 0, err
	}
	r := &rbuf{b: resp}
	n := r.i64()
	if err := r.done(); err != nil {
		return 0, &OpError{Addr: c.addr, Op: opName(opNumTraces), Err: err}
	}
	return int(n), nil
}

// ---- storage.Backend: Index table -------------------------------------------

// GetPostings fetches the pair's sorted runs. Segment block runs are
// materialized server-side; the merge join consumes runs independently and
// sorts matches at the end, so results are byte-identical to local reads.
func (c *Client) GetPostings(ctx context.Context, pair model.PairKey) (storage.Postings, error) {
	var w wbuf
	w.u64(uint64(pair))
	resp, err := c.call(ctx, opGetPostings, w.b)
	if err != nil {
		return storage.Postings{}, err
	}
	r := &rbuf{b: resp}
	n := r.count(1)
	if r.err != nil {
		return storage.Postings{}, &OpError{Addr: c.addr, Op: opName(opGetPostings), Err: ErrBadFrame}
	}
	var p storage.Postings
	if n > 0 {
		p.Runs = make([]storage.PostingsRun, 0, n)
	}
	for range n {
		row := r.blob()
		if r.err != nil {
			return storage.Postings{}, &OpError{Addr: c.addr, Op: opName(opGetPostings), Err: ErrBadFrame}
		}
		entries, err := storage.DecodeIndexRow(row)
		if err != nil {
			return storage.Postings{}, err
		}
		c.rows.Add(int64(len(entries)))
		if len(entries) == 0 {
			continue
		}
		p.Runs = append(p.Runs, storage.PostingsRun{Entries: entries})
	}
	if err := r.done(); err != nil {
		return storage.Postings{}, &OpError{Addr: c.addr, Op: opName(opGetPostings), Err: err}
	}
	return p, nil
}

// ScanIndex streams one partition's pair rows.
func (c *Client) ScanIndex(ctx context.Context, period string, fn func(model.PairKey, []storage.IndexEntry) error) error {
	var w wbuf
	w.str(period)
	return c.do(ctx, opScanIndex, w.b, func(body []byte) error {
		r := &rbuf{b: body}
		for !r.empty() {
			pair := model.PairKey(r.u64())
			row := r.blob()
			if r.err != nil {
				return r.err
			}
			entries, err := storage.DecodeIndexRow(row)
			if err != nil {
				return err
			}
			c.rows.Add(int64(len(entries)))
			if err := fn(pair, entries); err != nil {
				return err
			}
		}
		return r.done()
	})
}

// NumIndexedPairs counts one partition's distinct pairs.
func (c *Client) NumIndexedPairs(ctx context.Context, period string) (int, error) {
	var w wbuf
	w.str(period)
	resp, err := c.call(ctx, opNumIndexedPairs, w.b)
	if err != nil {
		return 0, err
	}
	r := &rbuf{b: resp}
	n := r.i64()
	if err := r.done(); err != nil {
		return 0, &OpError{Addr: c.addr, Op: opName(opNumIndexedPairs), Err: err}
	}
	return int(n), nil
}

// DropPeriod retires the partition on the remote store.
func (c *Client) DropPeriod(period string) error {
	var w wbuf
	w.str(period)
	return c.write(opDropPeriod, w.b)
}

// Periods lists the remote store's registered partitions (sorted).
func (c *Client) Periods(ctx context.Context) ([]string, error) {
	resp, err := c.call(ctx, opPeriods, nil)
	if err != nil {
		return nil, err
	}
	r := &rbuf{b: resp}
	n := r.count(1)
	if r.err != nil {
		return nil, &OpError{Addr: c.addr, Op: opName(opPeriods), Err: ErrBadFrame}
	}
	out := make([]string, 0, n)
	for range n {
		out = append(out, r.str())
	}
	if err := r.done(); err != nil {
		return nil, &OpError{Addr: c.addr, Op: opName(opPeriods), Err: err}
	}
	return out, nil
}

// FreezePostings folds the remote memtable tier into a segment file.
func (c *Client) FreezePostings() error {
	_, err := c.call(context.Background(), opFreeze, nil)
	return err
}

// ---- storage.Backend: Count table -------------------------------------------

// GetCounts reads the activity's (partial) Count row.
func (c *Client) GetCounts(ctx context.Context, first model.ActivityID) ([]storage.CountEntry, error) {
	var w wbuf
	w.i64(int64(first))
	resp, err := c.call(ctx, opGetCounts, w.b)
	if err != nil {
		return nil, err
	}
	r := &rbuf{b: resp}
	row := r.blob()
	if err := r.done(); err != nil {
		return nil, &OpError{Addr: c.addr, Op: opName(opGetCounts), Err: err}
	}
	entries, err := storage.DecodeCountRow(row)
	if err != nil {
		return nil, err
	}
	c.rows.Add(int64(len(entries)))
	return entries, nil
}

// GetPairCount reads one (a, b) Count entry.
func (c *Client) GetPairCount(ctx context.Context, a, b model.ActivityID) (storage.CountEntry, bool, error) {
	var w wbuf
	w.i64(int64(a))
	w.i64(int64(b))
	resp, err := c.call(ctx, opGetPairCount, w.b)
	if err != nil {
		return storage.CountEntry{}, false, err
	}
	r := &rbuf{b: resp}
	ok := r.bool1()
	e := storage.CountEntry{
		Other:       model.ActivityID(r.i64()),
		SumDuration: r.i64(),
		Completions: r.i64(),
	}
	if err := r.done(); err != nil {
		return storage.CountEntry{}, false, &OpError{Addr: c.addr, Op: opName(opGetPairCount), Err: err}
	}
	if !ok {
		return storage.CountEntry{}, false, nil
	}
	c.rows.Add(1)
	return e, true, nil
}

// ---- storage.Backend: LastChecked -------------------------------------------

// GetLastCompletion reads the pair's latest completion timestamp.
func (c *Client) GetLastCompletion(ctx context.Context, pair model.PairKey) (model.Timestamp, error) {
	var w wbuf
	w.u64(uint64(pair))
	resp, err := c.call(ctx, opGetLastCompletion, w.b)
	if err != nil {
		return 0, err
	}
	r := &rbuf{b: resp}
	ts := model.Timestamp(r.i64())
	if err := r.done(); err != nil {
		return 0, &OpError{Addr: c.addr, Op: opName(opGetLastCompletion), Err: err}
	}
	c.rows.Add(1)
	return ts, nil
}

// ---- storage.Backend: Meta table --------------------------------------------

// GetMeta reads one metadata row. Unlike the table reads, Backend declares
// it context-free, so it uses a background context internally.
func (c *Client) GetMeta(key string) ([]byte, bool, error) {
	var w wbuf
	w.str(key)
	resp, err := c.call(context.Background(), opGetMeta, w.b)
	if err != nil {
		return nil, false, err
	}
	r := &rbuf{b: resp}
	ok := r.bool1()
	v := r.blob()
	if err := r.done(); err != nil {
		return nil, false, &OpError{Addr: c.addr, Op: opName(opGetMeta), Err: err}
	}
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// ---- storage.Backend: observability, lifecycle ------------------------------

// commit ships one encoded group: oversized groups split into
// opCommitChunk frames (accumulated server-side), the final opCommit frame
// applies the whole group and answers once it is durable.
func (c *Client) commit(group []byte) error {
	max := c.opts.MaxFrame - 64
	chunk := chunkTarget
	if chunk > max {
		chunk = max
	}
	ctx := context.Background()
	c.inflight.Add(1)
	start := time.Now()
	defer func() {
		c.inflight.Add(-1)
		if h := c.hists[opCommit]; h != nil {
			h.Observe(time.Since(start))
		}
	}()
	c.sem <- struct{}{}
	defer func() { <-c.sem }()
	for attempt := 0; ; attempt++ {
		cc, pooled, err := c.conn(ctx)
		if err != nil {
			c.rpcErrs.Add(1)
			return err
		}
		// Chunks and the final commit ride one connection: the server keys
		// its accumulation on the connection. Only a failure on the very
		// first write proves the server never saw any of the group, so only
		// that is retried on a stale pooled connection.
		rest := group
		first := true
		var cerr error
		stale := false
		for len(rest) > chunk {
			frame := make([]byte, 0, 1+chunk)
			frame = append(frame, opCommitChunk)
			frame = append(frame, rest[:chunk]...)
			if err := writeFrame(cc.c, frame); err != nil {
				cc.c.Close()
				cerr = &OpError{Addr: c.addr, Op: opName(opCommitChunk), Err: err}
				stale = first
				break
			}
			first = false
			rest = rest[chunk:]
		}
		if cerr == nil {
			err, keep, st := c.roundTrip(ctx, cc, opCommit, rest, func([]byte) error { return nil })
			if keep {
				c.put(cc)
			} else {
				cc.c.Close()
			}
			cerr = err
			stale = st && first
		}
		if stale && pooled && attempt == 0 {
			c.flushIdle()
			continue
		}
		if cerr != nil {
			c.rpcErrs.Add(1)
		}
		return cerr
	}
}

// NumShards reports the single remote store behind this client.
func (c *Client) NumShards() int { return 1 }

// SetCacheBudget does nothing: a shard server's postings cache is sized
// only by its own -cache-mb, never by a client, so no front end resizes the
// cache other front ends read through.
func (c *Client) SetCacheBudget(int64) {}

// Sync flushes and fsyncs the remote store's WAL (no-op for memory-backed
// servers). The engine calls it through the sharded backend from
// Engine.Sync; ingestion needs no separate sync, since a commit group acks
// only once durable.
func (c *Client) Sync() error {
	_, err := c.call(context.Background(), opSync, nil)
	return err
}

// status returns the server's observability snapshot, cached for StatusTTL
// so metrics scrapes do not hammer the server; on RPC failure the last
// snapshot is served (zero values before the first success).
func (c *Client) status() statusSnapshot {
	c.stMu.Lock()
	defer c.stMu.Unlock()
	if time.Since(c.stAt) < c.opts.StatusTTL {
		return c.st
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := c.call(ctx, opStatus, nil)
	if err != nil {
		return c.st
	}
	r := &rbuf{b: resp}
	var st statusSnapshot
	st.cache.Hits = r.i64()
	st.cache.Misses = r.i64()
	st.cache.Evictions = r.i64()
	st.cache.Entries = r.i64()
	st.cache.Bytes = r.i64()
	st.seg.Segments = int(r.i64())
	st.seg.Rows = r.i64()
	st.seg.Entries = r.i64()
	st.seg.Bytes = r.i64()
	st.seg.Freezes = r.i64()
	st.rec.SnapshotRecords = r.i64()
	st.rec.WALReplayed = r.i64()
	st.rec.TornTailBytes = r.i64()
	st.rec.StaleWALBytes = r.i64()
	st.rec.DroppedRegions = r.i64()
	st.rec.DroppedBytes = r.i64()
	st.rec.UncommittedBatchBytes = r.i64()
	st.rec.Salvaged = r.bool1()
	st.readRows = r.i64()
	if r.done() != nil {
		return c.st
	}
	c.st, c.stAt = st, time.Now()
	return st
}

// CacheStats reports the remote postings cache counters (cached snapshot).
func (c *Client) CacheStats() storage.CacheStats { return c.status().cache }

// SegmentStats reports the remote immutable-tier shape (cached snapshot).
func (c *Client) SegmentStats() storage.SegmentStats { return c.status().seg }

// Recovery reports what the remote store's crash recovery found.
func (c *Client) Recovery() kvstore.RecoveryStats { return c.status().rec }

// ReadRows counts rows this client decoded from responses — the local
// observer of remote read traffic. (The server's own row counter is in the
// status snapshot; per-query row deltas must be cheap and RPC-free, so the
// client-side counter feeds ReadRows.)
func (c *Client) ReadRows() int64 { return c.rows.Load() }

// Reconnects counts dials after the client's first connection.
func (c *Client) Reconnects() int64 { return c.reconnects.Load() }

// Inflight reports RPCs currently in flight.
func (c *Client) Inflight() int64 { return c.inflight.Load() }

// SetMetrics registers the per-shard-server RPC series:
// seqlog_netshard_rpc_seconds{shard,op}, inflight, reconnects and error
// counters.
func (c *Client) SetMetrics(reg *metrics.Registry) {
	l := metrics.Label{Key: "shard", Value: fmt.Sprintf("%d", c.opts.Shard)}
	for op := byte(1); op < opMax; op++ {
		c.hists[op] = reg.Histogram("seqlog_netshard_rpc_seconds",
			l, metrics.Label{Key: "op", Value: opName(op)})
	}
	reg.GaugeFunc("seqlog_netshard_inflight", c.inflight.Load, l)
	reg.CounterFunc("seqlog_netshard_reconnects_total", c.reconnects.Load, l)
	reg.CounterFunc("seqlog_netshard_rpc_errors_total", c.rpcErrs.Load, l)
}
