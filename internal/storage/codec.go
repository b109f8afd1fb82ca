// Package storage maps the index tables of §3.1.2 of the paper — Seq,
// Index, Count and LastChecked — onto the kvstore substrate, with compact
// varint encodings tuned to the access pattern of each table: Seq and Index
// rows only ever grow (Append), a Count row is read-modify-write once per
// ingestion batch, and a LastChecked row is one varint — the pair's latest
// completion timestamp — rewritten when it rises. The paper's fifth table,
// Reverse Count, is Count transposed and is not kept: predecessors come from
// pair reads of Count. A store written by an older build keeps its "rcount"
// rows; nothing reads or writes them.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"

	"seqlog/internal/model"
)

// ErrCorrupt reports an undecodable table row; it normally indicates that a
// foreign writer touched the store.
var ErrCorrupt = errors.New("storage: corrupt row")

// Table names inside the kvstore. The Index table may be partitioned per
// period (§3.1.3): partition p lives in tableIndex+":"+p.
const (
	tableSeq     = "seq"
	tableIndex   = "index"
	tableCount   = "count"
	tableLast    = "lastchecked"
	tablePeriods = "periods"
	tableMeta    = "meta"
)

func pairKeyString(k model.PairKey) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(k))
	return string(b[:])
}

func parsePairKey(s string) (model.PairKey, error) {
	if len(s) != 8 {
		return 0, fmt.Errorf("%w: pair key %q", ErrCorrupt, s)
	}
	return model.PairKey(binary.BigEndian.Uint64([]byte(s))), nil
}

func traceKeyString(id model.TraceID) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(id))
	return string(b[:])
}

func parseTraceKey(s string) (model.TraceID, error) {
	if len(s) != 8 {
		return 0, fmt.Errorf("%w: trace key %q", ErrCorrupt, s)
	}
	return model.TraceID(binary.BigEndian.Uint64([]byte(s))), nil
}

func activityKeyString(a model.ActivityID) string {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(a))
	return string(b[:])
}

func parseActivityKey(s string) (model.ActivityID, error) {
	if len(s) != 4 {
		return 0, fmt.Errorf("%w: activity key %q", ErrCorrupt, s)
	}
	return model.ActivityID(binary.BigEndian.Uint32([]byte(s))), nil
}

// uvarint decoding cursor over a row.
type reader struct {
	buf []byte
	off int
}

func (r *reader) done() bool { return r.off >= len(r.buf) }

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, ErrCorrupt
	}
	r.off += n
	return v, nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		return 0, ErrCorrupt
	}
	r.off += n
	return v, nil
}
