// Package netshard is the network implementation of the storage.Backend
// seam: a shard server (cmd/seqshard) exposes one store's four-table
// read/commit surface over length-prefixed TCP, and
// Client implements storage.Backend against it, so the engine, the ingest
// pipeline and the query layer run unchanged over remote shards. The
// coordinator side wraps N clients in shard.NewFromBackends — routing,
// deterministic merges and the per-shard ShardedCommits group commits are
// exactly the in-process ones, which is what makes a multi-process engine
// byte-identical to a single-process sharded engine (the differential
// oracle asserts this).
//
// Wire format (DESIGN.md §13): after an 8-byte hello exchange, each
// direction carries frames of [uint32 big-endian length][payload]. A request
// payload is [opcode][body]; a response payload is [status][body] where
// status 0 is the final success frame, 2 is a partial frame of a streaming
// response (more follow), and 1 is an error frame carrying [code][message].
// Row bodies reuse the storage package's on-disk row codecs verbatim
// (storage.EncodeSeqRow and friends), so a remote row can never drift from
// a local one. Frame lengths are capped (DefaultMaxFrame) and every decoder
// bounds its allocations by the received length: a crafted length fails
// with a typed error instead of panicking or OOMing the receiver.
//
// Failure semantics: one WAL group per remote store — a commit group ships
// as opCommitChunk*+opCommit and is applied inside the server store's own
// BeginBatch/CommitBatch, acked only after the group's fsync. There is no
// cross-shard transaction (no 2PC): a coordinator crash between shard
// commits can leave shards a flush apart, which the watermark-idempotent
// replay of Algorithm 1 tolerates, exactly as for local sharded stores.
package netshard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"seqlog/internal/kvstore"
	"seqlog/internal/storage"
)

// protoVersion is exchanged, after the magic, in an 8-byte hello
// [magic(4)][version][0 0 0] from each side before any frame. Version 2
// dropped the row-returning index reads (and renumbered the opcodes after
// them) and the v1 server-hello WAL flag: every store now commits groups.
// Version 3 made the two LastChecked ops carry one scalar, dropped the prune
// op and renumbered the opcodes after it. Version 4 dropped the two Reverse
// Count ops and renumbered the opcodes after them.
const protoVersion = 4

var protoMagic = [4]byte{'S', 'Q', 'S', 'H'}

// DefaultMaxFrame caps one frame's payload, bounding what either side will
// allocate for a single read. Streaming responses and chunked commit groups
// keep well under it.
const DefaultMaxFrame = 32 << 20

// DefaultMaxCommit caps one commit group accumulated server-side across
// opCommitChunk frames — the backstop against a client streaming chunks
// forever.
const DefaultMaxCommit = 512 << 20

// chunkTarget is the client-side split size for shipped commit groups and
// the server-side flush size for streaming scans.
const chunkTarget = 4 << 20

// Typed protocol errors. ErrFrameTooLarge and ErrBadFrame travel across the
// wire by code, so both peers see the typed value regardless of which side
// rejected the frame.
var (
	// ErrBadMagic means the peer did not speak this protocol at all.
	ErrBadMagic = errors.New("netshard: bad protocol magic")
	// ErrVersion means the peer speaks an incompatible protocol version.
	ErrVersion = errors.New("netshard: protocol version mismatch")
	// ErrBadFrame means a frame or its body was malformed (zero length,
	// truncated varint, trailing bytes).
	ErrBadFrame = errors.New("netshard: malformed frame")
	// ErrFrameTooLarge means a frame header announced a payload over the
	// size limit; the payload is never allocated or read.
	ErrFrameTooLarge = errors.New("netshard: frame exceeds size limit")
	// ErrCommitTooLarge means a chunked commit group overran the server's
	// accumulation cap.
	ErrCommitTooLarge = errors.New("netshard: commit group exceeds size limit")
	// ErrClosed is returned by operations on a closed client.
	ErrClosed = errors.New("netshard: client is closed")
)

// Request opcodes. The numbering is part of the wire format: append only
// within a protocol version (TestOpcodeTable pins it).
const (
	opPing byte = iota + 1
	opStatus
	opGetMeta
	opPutMeta
	opGetSeq
	opAppendSeq
	opDeleteSeq
	opScanSeq
	opNumTraces
	opAppendIndex
	opScanIndex
	opNumIndexedPairs
	opDropPeriod
	opPeriods
	opGetPostings
	opFreeze
	opGetCounts
	opMergeCounts
	opGetPairCount
	opGetLastCompletion
	opMergeLastCompletion
	opSetCacheBudget
	opSync
	opCommitChunk
	opCommit
	opMax // one past the last opcode
)

// opNames label the per-op RPC metrics and OpError messages.
var opNames = [opMax]string{
	opPing: "ping", opStatus: "status",
	opGetMeta: "get_meta", opPutMeta: "put_meta",
	opGetSeq: "get_seq", opAppendSeq: "append_seq", opDeleteSeq: "delete_seq",
	opScanSeq: "scan_seq", opNumTraces: "num_traces",
	opAppendIndex: "append_index", opScanIndex: "scan_index",
	opNumIndexedPairs: "num_indexed_pairs", opDropPeriod: "drop_period",
	opPeriods: "periods", opGetPostings: "get_postings", opFreeze: "freeze",
	opGetCounts: "get_counts", opMergeCounts: "merge_counts",
	opGetPairCount: "get_pair_count", opGetLastCompletion: "get_last_completion",
	opMergeLastCompletion: "merge_last_completion", opSetCacheBudget: "set_cache_budget",
	opSync: "sync", opCommitChunk: "commit_chunk", opCommit: "commit",
}

func opName(op byte) string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op_%d", op)
}

// Response status bytes.
const (
	stOK   byte = 0 // final frame of a successful response
	stErr  byte = 1 // error frame: body is [code][message]
	stMore byte = 2 // partial frame of a streaming response
)

// Wire error codes: the handful of sentinel errors whose identity must
// survive the network so errors.Is keeps working on the client. Everything
// else travels as code 0 with its message verbatim.
const (
	ecGeneric byte = iota
	ecSegmentsDisabled
	ecCorrupt
	ecClosed
	ecFrameTooLarge
	ecBadFrame
	ecCommitTooLarge
)

func errToCode(err error) byte {
	switch {
	case errors.Is(err, storage.ErrSegmentsDisabled):
		return ecSegmentsDisabled
	case errors.Is(err, storage.ErrCorrupt):
		return ecCorrupt
	case errors.Is(err, kvstore.ErrClosed):
		return ecClosed
	case errors.Is(err, ErrFrameTooLarge):
		return ecFrameTooLarge
	case errors.Is(err, ErrBadFrame):
		return ecBadFrame
	case errors.Is(err, ErrCommitTooLarge):
		return ecCommitTooLarge
	}
	return ecGeneric
}

func codeSentinel(code byte) error {
	switch code {
	case ecSegmentsDisabled:
		return storage.ErrSegmentsDisabled
	case ecCorrupt:
		return storage.ErrCorrupt
	case ecClosed:
		return kvstore.ErrClosed
	case ecFrameTooLarge:
		return ErrFrameTooLarge
	case ecBadFrame:
		return ErrBadFrame
	case ecCommitTooLarge:
		return ErrCommitTooLarge
	}
	return nil
}

// remoteError is a server-reported failure. Error() is the server's message
// verbatim — the differential oracle compares error strings byte-for-byte
// between local and remote engines, so no transport prefix is added; use
// errors.Is with the sentinels above (or errors.As with *OpError for
// transport failures) to classify programmatically.
type remoteError struct {
	code byte
	msg  string
}

func (e *remoteError) Error() string { return e.msg }

func (e *remoteError) Is(target error) bool {
	s := codeSentinel(e.code)
	return s != nil && target == s
}

// OpError is a transport-level RPC failure: the connection died, the peer
// sent garbage, or the dial failed. Remote application errors are NOT
// wrapped in OpError — they come back as the server's error verbatim.
type OpError struct {
	// Addr is the shard server address the RPC targeted.
	Addr string
	// Op is the RPC name (the metrics label, e.g. "get_postings").
	Op string
	// Err is the underlying failure.
	Err error
}

func (e *OpError) Error() string {
	return fmt.Sprintf("netshard: %s %s: %v", e.Op, e.Addr, e.Err)
}

func (e *OpError) Unwrap() error { return e.Err }

// ---- Frame I/O --------------------------------------------------------------

// writeFrame writes one length-prefixed frame.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) == 0 {
		return ErrBadFrame
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame into buf (grown as needed) and returns the
// payload. A zero length fails ErrBadFrame; a length over max fails
// ErrFrameTooLarge without allocating or consuming the payload — the caller
// must treat the connection as poisoned in both cases, since the stream
// position is no longer trustworthy.
func readFrame(r io.Reader, buf []byte, max uint32) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, ErrBadFrame
	}
	if n > max {
		return nil, fmt.Errorf("%w (%d > %d)", ErrFrameTooLarge, n, max)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ---- Hello exchange ---------------------------------------------------------

func writeHello(w io.Writer) error {
	var h [8]byte
	copy(h[:4], protoMagic[:])
	h[4] = protoVersion
	_, err := w.Write(h[:])
	return err
}

func readHello(r io.Reader) error {
	var h [8]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return err
	}
	if [4]byte(h[:4]) != protoMagic {
		return ErrBadMagic
	}
	if h[4] != protoVersion {
		return fmt.Errorf("%w (peer %d, ours %d)", ErrVersion, h[4], protoVersion)
	}
	return nil
}

// ---- Body codec helpers -----------------------------------------------------

// wbuf builds a frame body: varints plus length-prefixed blobs.
type wbuf struct{ b []byte }

func (w *wbuf) u64(v uint64)  { w.b = binary.AppendUvarint(w.b, v) }
func (w *wbuf) i64(v int64)   { w.b = binary.AppendVarint(w.b, v) }
func (w *wbuf) byte1(v byte)  { w.b = append(w.b, v) }
func (w *wbuf) blob(p []byte) { w.u64(uint64(len(p))); w.b = append(w.b, p...) }
func (w *wbuf) str(s string)  { w.u64(uint64(len(s))); w.b = append(w.b, s...) }
func (w *wbuf) bool1(v bool) {
	if v {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

// rbuf consumes a frame body. The first malformation latches err and turns
// every later read into a zero-value no-op; callers check err (or use
// done()) once at the end. Blob and string lengths are validated against
// the remaining input before any allocation, so a crafted body cannot
// request more memory than the (already frame-capped) payload it arrived in.
type rbuf struct {
	b   []byte
	err error
}

func (r *rbuf) fail() {
	if r.err == nil {
		r.err = ErrBadFrame
	}
}

func (r *rbuf) u64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *rbuf) i64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *rbuf) byte1() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *rbuf) bool1() bool { return r.u64() != 0 }

// blob returns the next length-prefixed byte slice, aliasing the input.
func (r *rbuf) blob() []byte {
	n := r.u64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *rbuf) str() string { return string(r.blob()) }

func (r *rbuf) empty() bool { return r.err != nil || len(r.b) == 0 }

// done reports the latched error, or ErrBadFrame if input remains.
func (r *rbuf) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return ErrBadFrame
	}
	return nil
}
