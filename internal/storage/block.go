package storage

import (
	"encoding/binary"

	"seqlog/internal/model"
)

// Block-compressed postings. A pair's postings run — the (Trace, TsA, TsB)
// entries sorted by the merge-join order — is cut into blocks of at most
// postingsBlockSize entries. Each block carries a small skip header (the
// BlockMeta) followed by a delta-compressed payload:
//
//   - traces are non-decreasing within a sorted run, so each entry stores the
//     unsigned trace delta to its predecessor;
//   - first timestamps are near-monotone per trace (events arrive in time
//     order), so TsA is stored as a delta-of-delta — the change of the
//     timestamp gap — which is near zero for regularly spaced events;
//   - durations (TsB - TsA) cluster around the pair's typical latency, so
//     each entry stores the signed change of the duration.
//
// All deltas are computed in wrapping uint64 arithmetic and zig-zag varint
// encoded, so any byte string decodes (or fails) deterministically without
// overflow traps and every entry round-trips exactly, whatever its value.
//
// The skip header lets readers decide whether a block is worth decoding at
// all: the merge join reads a run with one forward cursor that, past the end
// of a block, searches the later headers' (LastTrace, LastTsA) for the block
// holding the next key and decodes it only when its first key admits that
// key, so a query decodes each block at most once; windowed detection skips
// blocks whose minimum duration already exceeds the window. Headers decode in
// O(blocks) without touching payload bytes.

// postingsBlockSize is the maximum number of entries per block. 128 keeps a
// decoded block around 3 KiB — small enough to stay cache-resident, large
// enough that the per-block header is ~3% overhead.
const postingsBlockSize = 128

// BlockMeta is the skip entry of one postings block, decoded from the block
// header without touching the payload.
type BlockMeta struct {
	// Count is the number of entries in the block (1..postingsBlockSize).
	Count int
	// Start is the index of the block's first entry within the whole run.
	Start int
	// FirstTrace/FirstTsA are the sort key of the first entry; LastTrace/
	// LastTsA the sort key of the last. Entries are sorted by (Trace, TsA,
	// TsB), so consecutive blocks cover adjacent key ranges.
	FirstTrace model.TraceID
	FirstTsA   model.Timestamp
	LastTrace  model.TraceID
	LastTsA    model.Timestamp
	// MinTsA/MaxTsB bound the block's time range (TsA is not monotone across
	// traces, so MinTsA can differ from FirstTsA).
	MinTsA model.Timestamp
	MaxTsB model.Timestamp
	// MinDur is the smallest TsB-TsA in the block: a windowed query with
	// within < MinDur can skip the whole block.
	MinDur int64

	// Payload location inside the run blob.
	off, plen int
}

// encodePostingsBlocks appends the block-compressed form of a sorted run to
// buf. Entries must already be in (Trace, TsA, TsB) order — the order
// sortIndexEntries produces. An empty run encodes to nothing.
func encodePostingsBlocks(buf []byte, entries []IndexEntry) []byte {
	var payload []byte
	for base := 0; base < len(entries); base += postingsBlockSize {
		blk := entries[base:]
		if len(blk) > postingsBlockSize {
			blk = blk[:postingsBlockSize]
		}
		first, last := blk[0], blk[len(blk)-1]
		minTsA, maxTsB := first.TsA, first.TsB
		minDur := int64(first.TsB - first.TsA)

		payload = payload[:0]
		prevTrace := uint64(first.Trace)
		prevTsA := uint64(first.TsA)
		var prevDTsA, prevDur uint64
		for _, e := range blk {
			if e.TsA < minTsA {
				minTsA = e.TsA
			}
			if e.TsB > maxTsB {
				maxTsB = e.TsB
			}
			if d := int64(e.TsB - e.TsA); d < minDur {
				minDur = d
			}
			dTrace := uint64(e.Trace) - prevTrace
			dTsA := uint64(e.TsA) - prevTsA
			dur := uint64(e.TsB) - uint64(e.TsA)
			payload = binary.AppendUvarint(payload, dTrace)
			payload = binary.AppendVarint(payload, int64(dTsA-prevDTsA))
			payload = binary.AppendVarint(payload, int64(dur-prevDur))
			prevTrace, prevTsA, prevDTsA, prevDur = uint64(e.Trace), uint64(e.TsA), dTsA, dur
		}

		buf = binary.AppendUvarint(buf, uint64(len(blk)))
		buf = binary.AppendUvarint(buf, uint64(first.Trace))
		buf = binary.AppendVarint(buf, int64(first.TsA))
		buf = binary.AppendUvarint(buf, uint64(last.Trace)-uint64(first.Trace))
		buf = binary.AppendVarint(buf, int64(last.TsA))
		buf = binary.AppendVarint(buf, int64(minTsA))
		buf = binary.AppendVarint(buf, int64(maxTsB))
		buf = binary.AppendVarint(buf, minDur)
		buf = binary.AppendUvarint(buf, uint64(len(payload)))
		buf = append(buf, payload...)
	}
	return buf
}

// decodeBlockMetas parses every skip header of a run blob without decoding
// any payload. The returned metas carry the payload offsets for
// decodePostingsBlock.
func decodeBlockMetas(blob []byte) ([]BlockMeta, error) {
	var metas []BlockMeta
	r := &reader{buf: blob}
	start := 0
	for !r.done() {
		var m BlockMeta
		count, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		ft, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		fts, err := r.varint()
		if err != nil {
			return nil, err
		}
		dlt, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		lts, err := r.varint()
		if err != nil {
			return nil, err
		}
		minTsA, err := r.varint()
		if err != nil {
			return nil, err
		}
		maxTsB, err := r.varint()
		if err != nil {
			return nil, err
		}
		minDur, err := r.varint()
		if err != nil {
			return nil, err
		}
		plen, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		// Every entry is at least three varint bytes, so a header claiming
		// more entries than the payload can hold is corrupt — this also caps
		// the allocation a hostile count could force.
		if count == 0 || count > postingsBlockSize || plen > uint64(len(blob)-r.off) || count*3 > plen {
			return nil, ErrCorrupt
		}
		m.Count = int(count)
		m.Start = start
		m.FirstTrace = model.TraceID(ft)
		m.FirstTsA = model.Timestamp(fts)
		m.LastTrace = model.TraceID(ft + dlt)
		m.LastTsA = model.Timestamp(lts)
		m.MinTsA = model.Timestamp(minTsA)
		m.MaxTsB = model.Timestamp(maxTsB)
		m.MinDur = minDur
		m.off, m.plen = r.off, int(plen)
		r.off += int(plen)
		start += m.Count
		metas = append(metas, m)
	}
	return metas, nil
}

// decodePostingsBlock appends the block's entries to dst (pre-size with
// make([]IndexEntry, 0, m.Count) for an exact allocation). The payload must
// decode to exactly m.Count entries consuming exactly its length.
//
// This is the hottest loop of the query path — every block a join touches
// runs through it — so the varints are decoded inline with a single-byte
// fast path instead of through the generic reader: deltas of regular event
// streams fit one byte almost always, and the count-prefixed block layout
// means no per-varint error handling is needed beyond a bounds check.
func decodePostingsBlock(blob []byte, m BlockMeta, dst []IndexEntry) ([]IndexEntry, error) {
	if m.off < 0 || m.plen < 0 || m.off+m.plen > len(blob) {
		return nil, ErrCorrupt
	}
	buf := blob[m.off : m.off+m.plen]
	n := len(buf)
	pos := 0
	prevTrace := uint64(m.FirstTrace)
	prevTsA := uint64(m.FirstTsA)
	var prevDTsA, prevDur uint64
	base := len(dst)
	if free := cap(dst) - base; free < m.Count {
		grown := make([]IndexEntry, base, base+m.Count)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[: base+m.Count : cap(dst)]
	for i := 0; i < m.Count; i++ {
		// Three varints per entry, decoded inline: deltas of regular event
		// streams fit one or two bytes almost always, so those paths stay in
		// the loop and only 3+-byte continuations leave it.
		var dTrace, ddTsA, dDur uint64
		if pos >= n {
			return nil, ErrCorrupt
		}
		b := buf[pos]
		pos++
		dTrace = uint64(b & 0x7f)
		if b >= 0x80 {
			if pos >= n {
				return nil, ErrCorrupt
			}
			b = buf[pos]
			pos++
			dTrace |= uint64(b&0x7f) << 7
			if b >= 0x80 {
				if dTrace, pos = uvarintRest(buf, pos, dTrace); pos < 0 {
					return nil, ErrCorrupt
				}
			}
		}
		if pos >= n {
			return nil, ErrCorrupt
		}
		b = buf[pos]
		pos++
		ddTsA = uint64(b & 0x7f)
		if b >= 0x80 {
			if pos >= n {
				return nil, ErrCorrupt
			}
			b = buf[pos]
			pos++
			ddTsA |= uint64(b&0x7f) << 7
			if b >= 0x80 {
				if ddTsA, pos = uvarintRest(buf, pos, ddTsA); pos < 0 {
					return nil, ErrCorrupt
				}
			}
		}
		if pos >= n {
			return nil, ErrCorrupt
		}
		b = buf[pos]
		pos++
		dDur = uint64(b & 0x7f)
		if b >= 0x80 {
			if pos >= n {
				return nil, ErrCorrupt
			}
			b = buf[pos]
			pos++
			dDur |= uint64(b&0x7f) << 7
			if b >= 0x80 {
				if dDur, pos = uvarintRest(buf, pos, dDur); pos < 0 {
					return nil, ErrCorrupt
				}
			}
		}
		// ddTsA and dDur are zig-zag encoded signed deltas.
		prevTrace += dTrace
		prevDTsA += uint64(int64(ddTsA>>1) ^ -int64(ddTsA&1))
		prevTsA += prevDTsA
		prevDur += uint64(int64(dDur>>1) ^ -int64(dDur&1))
		dst[base+i] = IndexEntry{
			Trace: model.TraceID(prevTrace),
			TsA:   model.Timestamp(prevTsA),
			TsB:   model.Timestamp(prevTsA + prevDur),
		}
	}
	if pos != n {
		return nil, ErrCorrupt
	}
	return dst, nil
}

// uvarintRest finishes a varint whose first two bytes (already folded into x)
// both had the continuation bit set. Returns the value and the position after
// the last byte, or -1 on truncation or a >64-bit encoding, mirroring
// binary.Uvarint's rejection rules. Kept out of the decode loop so the 1- and
// 2-byte fast paths stay small.
//
//go:noinline
func uvarintRest(buf []byte, pos int, x uint64) (uint64, int) {
	for shift := uint(14); shift < 64; shift += 7 {
		if pos >= len(buf) {
			return 0, -1
		}
		b := buf[pos]
		pos++
		if b < 0x80 {
			if shift == 63 && b > 1 {
				return 0, -1 // overflows uint64
			}
			return x | uint64(b)<<shift, pos
		}
		x |= uint64(b&0x7f) << shift
	}
	return 0, -1 // continuation past the 10th byte
}

// decodeAllBlocks decodes a whole run blob into one slice, sized exactly from
// the headers.
func decodeAllBlocks(blob []byte) ([]IndexEntry, error) {
	metas, err := decodeBlockMetas(blob)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, m := range metas {
		total += m.Count
	}
	out := make([]IndexEntry, 0, total)
	for _, m := range metas {
		if out, err = decodePostingsBlock(blob, m, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}
