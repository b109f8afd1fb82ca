package storage

import "seqlog/internal/model"

// Wire-format row codecs. The netshard protocol ships table rows between a
// coordinator and its shard servers in exactly the encodings this package
// already stores them under — one codec per table, defined once — so a
// remote row can never drift from a local one byte-for-byte: a commit
// group's Seq and Index rows on their way to the server's Tables.Commit,
// and every row a read returns. These are thin exported wrappers; the
// unexported encoders below them stay authoritative (and fuzz-pinned by the
// storage codec fuzz targets).
//
// Every decoder is strict: trailing garbage, truncated varints and
// impossible counts return ErrCorrupt, and allocation is bounded by the
// input length, so a crafted network payload cannot OOM the receiver.

// EncodeSeqRow appends the Seq-table encoding of events to buf.
func EncodeSeqRow(buf []byte, events []model.TraceEvent) []byte {
	return encodeSeq(buf, events)
}

// DecodeSeqRow decodes a Seq-table row.
func DecodeSeqRow(raw []byte) ([]model.TraceEvent, error) { return decodeSeq(raw) }

// EncodeIndexRow appends the Index-table encoding of entries to buf.
func EncodeIndexRow(buf []byte, entries []IndexEntry) []byte {
	return encodeIndexEntries(buf, entries)
}

// DecodeIndexRow decodes an Index-table row.
func DecodeIndexRow(raw []byte) ([]IndexEntry, error) { return decodeIndexEntries(raw) }

// EncodeCountRow appends the Count-table encoding of entries to buf.
func EncodeCountRow(buf []byte, entries []CountEntry) []byte {
	for _, e := range entries {
		buf = appendCount(buf, e)
	}
	return buf
}

// DecodeCountRow decodes a Count-table row.
func DecodeCountRow(raw []byte) ([]CountEntry, error) { return decodeCounts(raw) }
