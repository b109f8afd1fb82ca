package netshard

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"seqlog/internal/kvstore"
	"seqlog/internal/model"
	"seqlog/internal/storage"
)

// ServerOptions tune a shard server.
type ServerOptions struct {
	// MaxFrame caps one inbound frame's payload (DefaultMaxFrame when 0).
	MaxFrame int
	// MaxCommit caps one commit group accumulated across opCommitChunk
	// frames (DefaultMaxCommit when 0).
	MaxCommit int64
	// Logf, when set, receives one line per connection-level failure.
	Logf func(format string, args ...any)
}

// Server exposes one store's storage.Backend surface over TCP. Reads run
// concurrently (the store and tables are safe for concurrent use); writes —
// including whole shipped commit groups — are serialized under one mutex,
// honouring the kvstore.BatchWriter no-concurrent-writers contract.
type Server struct {
	tab   *storage.Tables
	store kvstore.Store
	opts  ServerOptions

	wmu sync.Mutex // serializes every mutation and each whole commit group

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps an opened single-store tables view and its store. The
// caller keeps ownership of both: Close stops serving but closes neither.
func NewServer(tab *storage.Tables, store kvstore.Store, opts ServerOptions) *Server {
	if opts.MaxFrame <= 0 {
		opts.MaxFrame = DefaultMaxFrame
	}
	if opts.MaxCommit <= 0 {
		opts.MaxCommit = DefaultMaxCommit
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		tab: tab, store: store, opts: opts,
		ctx: ctx, cancel: cancel,
		conns: make(map[net.Conn]struct{}),
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Serve accepts connections on ln until Close (or a listener error). It
// blocks; run it in its own goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.ctx.Err() != nil {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(c)
			c.Close()
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, severs every live connection and waits for the
// handlers to drain. The tables and store stay open (the caller owns them).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.cancel()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

// handle speaks the protocol on one connection until it errors or closes.
func (s *Server) handle(c net.Conn) {
	br := bufio.NewReaderSize(c, 64<<10)
	bw := bufio.NewWriterSize(c, 64<<10)
	if err := readHello(br); err != nil {
		if errors.Is(err, ErrVersion) {
			// Answer before hanging up so the peer's own hello check names
			// the mismatch instead of a bare EOF.
			writeHello(c)
		}
		s.logf("netshard: %s: bad hello: %v", c.RemoteAddr(), err)
		return
	}
	if err := writeHello(c); err != nil {
		return
	}
	maxFrame := uint32(s.opts.MaxFrame)
	var (
		frame   []byte
		pending []byte // accumulated opCommitChunk bytes for this conn
	)
	for {
		var err error
		frame, err = readFrame(br, frame, maxFrame)
		if err != nil {
			// A too-large or malformed frame gets a typed error response
			// before the connection is dropped: the stream position is
			// untrustworthy past a bad header, so no recovery is attempted.
			if code := errToCode(err); code == ecFrameTooLarge || code == ecBadFrame {
				s.writeErr(bw, err)
				bw.Flush()
			} else if s.ctx.Err() == nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("netshard: %s: read: %v", c.RemoteAddr(), err)
			}
			return
		}
		op, body := frame[0], frame[1:]
		if op == opCommitChunk {
			if int64(len(pending)+len(body)) > s.opts.MaxCommit {
				s.writeErr(bw, ErrCommitTooLarge)
				bw.Flush()
				return
			}
			pending = append(pending, body...)
			continue // chunks are unacknowledged; opCommit answers for all
		}
		if err := s.dispatch(bw, op, body, &pending); err != nil {
			// dispatch already wrote an error frame for application errors;
			// a non-nil return means the connection itself failed.
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

func (s *Server) writeErr(w *bufio.Writer, err error) error {
	msg := err.Error()
	payload := make([]byte, 0, 2+len(msg))
	payload = append(payload, stErr, errToCode(err))
	payload = append(payload, msg...)
	return writeFrame(w, payload)
}

func writeOK(w *bufio.Writer, body []byte) error {
	payload := make([]byte, 0, 1+len(body))
	payload = append(payload, stOK)
	payload = append(payload, body...)
	return writeFrame(w, payload)
}

// dispatch handles one request frame: unary ops answer one stOK frame (or
// one stErr frame for application errors); streaming scans interleave stMore
// frames. The returned error is transport-level only.
func (s *Server) dispatch(w *bufio.Writer, op byte, body []byte, pending *[]byte) error {
	switch op {
	case opScanSeq:
		return s.scanSeq(w, body)
	case opScanIndex:
		return s.scanIndex(w, body)
	case opCommit:
		group := *pending
		*pending = nil
		if len(body) > 0 {
			if int64(len(group)+len(body)) > s.opts.MaxCommit {
				return s.writeErr(w, ErrCommitTooLarge)
			}
			group = append(group, body...)
		}
		if err := s.applyCommit(group); err != nil {
			return s.writeErr(w, err)
		}
		return writeOK(w, nil)
	}
	resp, err := s.unary(op, body)
	if err != nil {
		return s.writeErr(w, err)
	}
	return writeOK(w, resp)
}

// unary handles every non-streaming op and returns the response body.
func (s *Server) unary(op byte, body []byte) ([]byte, error) {
	r := &rbuf{b: body}
	var out wbuf
	switch op {
	case opPing:

	case opStatus:
		cs := s.tab.CacheStats()
		out.i64(cs.Hits)
		out.i64(cs.Misses)
		out.i64(cs.Evictions)
		out.i64(cs.Entries)
		out.i64(cs.Bytes)
		ss := s.tab.SegmentStats()
		out.i64(int64(ss.Segments))
		out.i64(ss.Rows)
		out.i64(ss.Entries)
		out.i64(ss.Bytes)
		out.i64(ss.Freezes)
		rec := s.tab.Recovery()
		out.i64(rec.SnapshotRecords)
		out.i64(rec.WALReplayed)
		out.i64(rec.TornTailBytes)
		out.i64(rec.StaleWALBytes)
		out.i64(rec.DroppedRegions)
		out.i64(rec.DroppedBytes)
		out.i64(rec.UncommittedBatchBytes)
		out.bool1(rec.Salvaged)
		out.i64(s.tab.ReadRows())

	case opGetMeta:
		key := r.str()
		if err := r.done(); err != nil {
			return nil, err
		}
		v, ok, err := s.tab.GetMeta(key)
		if err != nil {
			return nil, err
		}
		out.bool1(ok)
		out.blob(v)

	case opGetSeq:
		id := model.TraceID(r.u64())
		if err := r.done(); err != nil {
			return nil, err
		}
		events, ok, err := s.tab.GetSeq(s.ctx, id)
		if err != nil {
			return nil, err
		}
		out.bool1(ok)
		out.blob(storage.EncodeSeqRow(nil, events))

	case opNumTraces:
		n, err := s.tab.NumTraces(s.ctx)
		if err != nil {
			return nil, err
		}
		out.i64(int64(n))

	case opGetPostings:
		pair := model.PairKey(r.u64())
		if err := r.done(); err != nil {
			return nil, err
		}
		p, err := s.tab.GetPostings(s.ctx, pair)
		if err != nil {
			return nil, err
		}
		// Block runs are materialized server-side: the merge join consumes
		// runs independently and the final match sort is order-agnostic, so
		// shipping each run as a plain sorted slice preserves results
		// byte-for-byte while keeping the wire format block-free.
		out.u64(uint64(len(p.Runs)))
		for _, run := range p.Runs {
			entries := run.Entries
			if run.Blocks != nil {
				entries, err = run.Blocks.All()
				if err != nil {
					return nil, err
				}
			}
			out.blob(storage.EncodeIndexRow(nil, entries))
		}

	case opNumIndexedPairs:
		period := r.str()
		if err := r.done(); err != nil {
			return nil, err
		}
		n, err := s.tab.NumIndexedPairs(s.ctx, period)
		if err != nil {
			return nil, err
		}
		out.i64(int64(n))

	case opPeriods:
		ps, err := s.tab.Periods(s.ctx)
		if err != nil {
			return nil, err
		}
		out.u64(uint64(len(ps)))
		for _, p := range ps {
			out.str(p)
		}

	case opGetCounts:
		act := model.ActivityID(r.i64())
		if err := r.done(); err != nil {
			return nil, err
		}
		entries, err := s.tab.GetCounts(s.ctx, act)
		if err != nil {
			return nil, err
		}
		out.blob(storage.EncodeCountRow(nil, entries))

	case opGetPairCount:
		a := model.ActivityID(r.i64())
		b := model.ActivityID(r.i64())
		if err := r.done(); err != nil {
			return nil, err
		}
		e, ok, err := s.tab.GetPairCount(s.ctx, a, b)
		if err != nil {
			return nil, err
		}
		out.bool1(ok)
		out.i64(int64(e.Other))
		out.i64(e.SumDuration)
		out.i64(e.Completions)

	case opGetLastCompletion:
		pair := model.PairKey(r.u64())
		if err := r.done(); err != nil {
			return nil, err
		}
		ts, err := s.tab.GetLastCompletion(s.ctx, pair)
		if err != nil {
			return nil, err
		}
		out.i64(int64(ts))

	case opFreeze:
		s.wmu.Lock()
		err := s.tab.FreezePostings()
		s.wmu.Unlock()
		if err != nil {
			return nil, err
		}

	case opSync:
		s.wmu.Lock()
		err := s.syncStore()
		s.wmu.Unlock()
		if err != nil {
			return nil, err
		}

	case opSetCacheBudget:
		budget := r.i64()
		if err := r.done(); err != nil {
			return nil, err
		}
		s.tab.SetCacheBudget(budget)

	case opPutMeta, opAppendSeq, opDeleteSeq, opAppendIndex, opDropPeriod,
		opMergeCounts, opMergeLastCompletion:
		s.wmu.Lock()
		err := s.applyWrite(op, body)
		s.wmu.Unlock()
		if err != nil {
			return nil, err
		}

	default:
		return nil, fmt.Errorf("%w: unknown opcode %d", ErrBadFrame, op)
	}
	return out.b, nil
}

func (s *Server) syncStore() error {
	if sy, ok := s.store.(interface{ Sync() error }); ok {
		return sy.Sync()
	}
	return nil
}

// applyCommit applies one shipped commit group inside the store's own
// crash-atomic batch (one WAL group, one fsync) and returns only once the
// group is durable — the client's CommitBatch ack.
func (s *Server) applyCommit(group []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return kvstore.Atomically(s.store, func() error { return s.applyOps(group) })
}

// applyOps replays a commit group's op stream: [op][uvarint len][body]...
func (s *Server) applyOps(group []byte) error {
	r := &rbuf{b: group}
	for !r.empty() {
		op := r.byte1()
		body := r.blob()
		if r.err != nil {
			return r.err
		}
		if err := s.applyWrite(op, body); err != nil {
			return err
		}
	}
	return r.done()
}

// applyWrite executes one mutation. Callers hold wmu.
func (s *Server) applyWrite(op byte, body []byte) error {
	r := &rbuf{b: body}
	switch op {
	case opPutMeta:
		key := r.str()
		value := r.blob()
		if err := r.done(); err != nil {
			return err
		}
		return s.tab.PutMeta(key, append([]byte(nil), value...))

	case opAppendSeq:
		id := model.TraceID(r.u64())
		row := r.blob()
		if err := r.done(); err != nil {
			return err
		}
		events, err := storage.DecodeSeqRow(row)
		if err != nil {
			return err
		}
		return s.tab.AppendSeq(id, events)

	case opDeleteSeq:
		id := model.TraceID(r.u64())
		if err := r.done(); err != nil {
			return err
		}
		return s.tab.DeleteSeq(id)

	case opAppendIndex:
		period := r.str()
		pair := model.PairKey(r.u64())
		row := r.blob()
		if err := r.done(); err != nil {
			return err
		}
		entries, err := storage.DecodeIndexRow(row)
		if err != nil {
			return err
		}
		return s.tab.AppendIndex(period, pair, entries)

	case opDropPeriod:
		period := r.str()
		if err := r.done(); err != nil {
			return err
		}
		return s.tab.DropPeriod(period)

	case opMergeCounts:
		act := model.ActivityID(r.i64())
		row := r.blob()
		if err := r.done(); err != nil {
			return err
		}
		delta, err := storage.DecodeCountRow(row)
		if err != nil {
			return err
		}
		return s.tab.MergeCounts(act, delta)

	case opMergeLastCompletion:
		pair := model.PairKey(r.u64())
		ts := model.Timestamp(r.i64())
		if err := r.done(); err != nil {
			return err
		}
		return s.tab.MergeLastCompletion(pair, ts)
	}
	return fmt.Errorf("%w: opcode %d is not a mutation", ErrBadFrame, op)
}

// scanSeq streams every Seq row in batched stMore frames, then a final stOK.
func (s *Server) scanSeq(w *bufio.Writer, body []byte) error {
	if len(body) != 0 {
		return s.writeErr(w, ErrBadFrame)
	}
	batch := wbuf{b: []byte{stMore}}
	scanErr := s.tab.ScanSeq(s.ctx, func(id model.TraceID, events []model.TraceEvent) error {
		batch.u64(uint64(id))
		batch.blob(storage.EncodeSeqRow(nil, events))
		if len(batch.b) >= chunkTarget {
			if err := writeFrame(w, batch.b); err != nil {
				return err
			}
			batch.b = batch.b[:1]
		}
		return nil
	})
	if scanErr != nil {
		return s.writeErr(w, scanErr)
	}
	batch.b[0] = stOK
	return writeFrame(w, batch.b)
}

// scanIndex streams one partition's pair rows like scanSeq.
func (s *Server) scanIndex(w *bufio.Writer, body []byte) error {
	r := &rbuf{b: body}
	period := r.str()
	if err := r.done(); err != nil {
		return s.writeErr(w, err)
	}
	batch := wbuf{b: []byte{stMore}}
	scanErr := s.tab.ScanIndex(s.ctx, period, func(pair model.PairKey, entries []storage.IndexEntry) error {
		batch.u64(uint64(pair))
		batch.blob(storage.EncodeIndexRow(nil, entries))
		if len(batch.b) >= chunkTarget {
			if err := writeFrame(w, batch.b); err != nil {
				return err
			}
			batch.b = batch.b[:1]
		}
		return nil
	})
	if scanErr != nil {
		return s.writeErr(w, scanErr)
	}
	batch.b[0] = stOK
	return writeFrame(w, batch.b)
}
