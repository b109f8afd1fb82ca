package storage

import (
	"encoding/binary"
	"reflect"
	"testing"

	"seqlog/internal/model"
)

// Fuzz targets for the table value codecs. The WAL can replay arbitrary
// bytes after a torn write or bit rot upstream of the checksums, so the
// decoders must never panic, and for every input they accept the decoded
// VALUE must round-trip: decode → encode → decode is a fixpoint. Byte
// round-trips are deliberately not asserted — varints have non-minimal
// encodings that decode fine but re-encode shorter.

func FuzzSeqCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeSeq(nil, []model.TraceEvent{
		{Activity: 0, TS: 0},
		{Activity: 3, TS: 17},
		{Activity: 1 << 20, TS: -42},
	}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{0x80}) // truncated uvarint
	f.Fuzz(func(t *testing.T, raw []byte) {
		events, err := decodeSeq(raw)
		if err != nil {
			return
		}
		again, err := decodeSeq(encodeSeq(nil, events))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(events, again) {
			t.Fatalf("seq round-trip diverged:\nfirst:  %v\nsecond: %v", events, again)
		}
	})
}

func FuzzIndexEntriesCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeIndexEntries(nil, []IndexEntry{
		{Trace: 1, TsA: 10, TsB: 12},
		{Trace: 9e15, TsA: -5, TsB: 400},
	}))
	f.Add([]byte{0x01, 0x01}) // truncated entry
	f.Fuzz(func(t *testing.T, raw []byte) {
		entries, err := decodeIndexEntries(raw)
		if err != nil {
			return
		}
		again, err := decodeIndexEntries(encodeIndexEntries(nil, entries))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(entries, again) {
			t.Fatalf("index round-trip diverged:\nfirst:  %v\nsecond: %v", entries, again)
		}
	})
}

func FuzzCountsCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeCountRow(nil, []CountEntry{
		{Other: 2, SumDuration: 123, Completions: 4},
		{Other: 1 << 30, SumDuration: -9, Completions: 0},
	}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		entries, err := decodeCounts(raw)
		if err != nil {
			return
		}
		again, err := decodeCounts(EncodeCountRow(nil, entries))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(entries, again) {
			t.Fatalf("counts round-trip diverged:\nfirst:  %v\nsecond: %v", entries, again)
		}
	})
}

// FuzzLastCheckedCodec: any row the decoder accepts — scalar or legacy map —
// re-encodes as exactly one varint that decodes to the same timestamp.
func FuzzLastCheckedCodec(f *testing.F) {
	f.Add(binary.AppendVarint(nil, -1))
	f.Add(legacyRowA)
	f.Fuzz(func(t *testing.T, raw []byte) {
		ts, err := decodeLastCompletion(raw)
		if err != nil {
			return
		}
		enc := binary.AppendVarint(nil, int64(ts))
		if _, n := binary.Varint(enc); n != len(enc) {
			t.Fatalf("re-encoded row %x is not one varint", enc)
		}
		if again, err := decodeLastCompletion(enc); err != nil || again != ts {
			t.Fatalf("lastchecked round-trip diverged: %d, then %d (%v)", ts, again, err)
		}
	})
}

// FuzzKeyCodecs: the fixed-width key strings must round-trip for every id,
// and the parsers must reject (never panic on) arbitrary strings.
func FuzzKeyCodecs(f *testing.F) {
	f.Add(uint64(0), "")
	f.Add(uint64(1<<63), string(make([]byte, 8)))
	f.Add(^uint64(0), "short")
	f.Fuzz(func(t *testing.T, id uint64, s string) {
		pk := model.PairKey(id)
		if got, err := parsePairKey(pairKeyString(pk)); err != nil || got != pk {
			t.Fatalf("pair key %d: got %d, %v", pk, got, err)
		}
		tid := model.TraceID(id)
		if got, err := parseTraceKey(traceKeyString(tid)); err != nil || got != tid {
			t.Fatalf("trace key %d: got %d, %v", tid, got, err)
		}
		aid := model.ActivityID(uint32(id))
		if got, err := parseActivityKey(activityKeyString(aid)); err != nil || got != aid {
			t.Fatalf("activity key %d: got %d, %v", aid, got, err)
		}
		// Arbitrary strings: parse may fail, must not panic, and anything
		// accepted must re-encode to the same string.
		if got, err := parsePairKey(s); err == nil && pairKeyString(got) != s {
			t.Fatalf("pair parse of %q not canonical", s)
		}
		if got, err := parseTraceKey(s); err == nil && traceKeyString(got) != s {
			t.Fatalf("trace parse of %q not canonical", s)
		}
		if got, err := parseActivityKey(s); err == nil && activityKeyString(got) != s {
			t.Fatalf("activity parse of %q not canonical", s)
		}
	})
}
