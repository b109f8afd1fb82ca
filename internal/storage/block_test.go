package storage

import (
	"encoding/hex"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"seqlog/internal/model"
)

// randomSortedRun builds n entries in the (Trace, TsA, TsB) order the block
// encoder expects, with the near-monotone timestamps real ingestion produces.
func randomSortedRun(rng *rand.Rand, n int) []IndexEntry {
	out := make([]IndexEntry, 0, n)
	trace := model.TraceID(rng.Int63n(100))
	ts := model.Timestamp(rng.Int63n(1 << 30))
	for len(out) < n {
		// A few entries per trace, timestamps advancing by jittered steps.
		for k := rng.Intn(4) + 1; k > 0 && len(out) < n; k-- {
			ts += model.Timestamp(rng.Int63n(1000))
			out = append(out, IndexEntry{
				Trace: trace,
				TsA:   ts,
				TsB:   ts + model.Timestamp(rng.Int63n(500)+1),
			})
		}
		trace += model.TraceID(rng.Int63n(5) + 1)
		if rng.Intn(8) == 0 {
			ts -= model.Timestamp(rng.Int63n(1 << 20)) // TsA is not monotone across traces
		}
	}
	return out
}

func TestPostingsBlocksRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 2, postingsBlockSize - 1, postingsBlockSize, postingsBlockSize + 1, 1000} {
		in := randomSortedRun(rng, n)
		blob := encodePostingsBlocks(nil, in)
		if n == 0 {
			if len(blob) != 0 {
				t.Fatalf("empty run encoded to %d bytes", len(blob))
			}
			continue
		}
		got, err := decodeAllBlocks(blob)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if !reflect.DeepEqual(got, in) {
			t.Fatalf("n=%d: round trip diverged", n)
		}
	}
}

// Extreme values must round-trip exactly: the codec uses wrapping uint64
// arithmetic precisely so that overflow cannot corrupt entries.
func TestPostingsBlocksExtremes(t *testing.T) {
	in := []IndexEntry{
		{Trace: 0, TsA: model.Timestamp(-1 << 62), TsB: model.Timestamp(1<<62 - 1)},
		{Trace: 1 << 62, TsA: 1<<62 - 1, TsB: model.Timestamp(-1 << 62)}, // "negative" duration wraps
		{Trace: model.TraceID(1<<63 - 1), TsA: 0, TsB: 0},
	}
	got, err := decodeAllBlocks(encodePostingsBlocks(nil, in))
	if err != nil || !reflect.DeepEqual(got, in) {
		t.Fatalf("extreme round trip: %v %v", got, err)
	}
}

// The skip headers must agree with a brute-force pass over the entries — the
// merge join and the window pruning trust them without decoding payloads.
func TestBlockMetasMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := randomSortedRun(rng, 3*postingsBlockSize+17)
	blob := encodePostingsBlocks(nil, in)
	metas, err := decodeBlockMetas(blob)
	if err != nil {
		t.Fatal(err)
	}
	wantBlocks := (len(in) + postingsBlockSize - 1) / postingsBlockSize
	if len(metas) != wantBlocks {
		t.Fatalf("blocks = %d, want %d", len(metas), wantBlocks)
	}
	start := 0
	for bi, m := range metas {
		if m.Start != start {
			t.Fatalf("block %d: Start = %d, want %d", bi, m.Start, start)
		}
		blk := in[start : start+m.Count]
		first, last := blk[0], blk[len(blk)-1]
		if m.FirstTrace != first.Trace || m.FirstTsA != first.TsA ||
			m.LastTrace != last.Trace || m.LastTsA != last.TsA {
			t.Fatalf("block %d: key range %+v vs %+v..%+v", bi, m, first, last)
		}
		minTsA, maxTsB := blk[0].TsA, blk[0].TsB
		minDur := int64(blk[0].TsB - blk[0].TsA)
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
		}
		if m.MinTsA != minTsA || m.MaxTsB != maxTsB || m.MinDur != minDur {
			t.Fatalf("block %d: bounds %+v, want min=%d max=%d dur=%d", bi, m, minTsA, maxTsB, minDur)
		}
		// Per-block decode must reproduce exactly this slice.
		got, err := decodePostingsBlock(blob, m, make([]IndexEntry, 0, m.Count))
		if err != nil || !reflect.DeepEqual(got, blk) {
			t.Fatalf("block %d decode: %v", bi, err)
		}
		start += m.Count
	}
}

// TestMinDurSkipMatchesRowFilter is the windowed scan DetectWithin issues:
// skipping every block whose MinDur header exceeds the window must count
// exactly the entries a filter over every row counts. Durations drift in
// regimes across traces, so whole blocks outlast the tighter windows and the
// skip is really exercised.
func TestMinDurSkipMatchesRowFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var in []IndexEntry
	trace, ts, scale := model.TraceID(0), model.Timestamp(1_700_000_000_000), int64(1)
	for len(in) < 20*postingsBlockSize+37 {
		if rng.Intn(40) == 0 {
			scale = int64(1) << rng.Intn(16)
		}
		for k := rng.Intn(4) + 1; k > 0; k-- {
			ts += model.Timestamp(rng.Int63n(1000))
			in = append(in, IndexEntry{Trace: trace, TsA: ts, TsB: ts + model.Timestamp(scale+rng.Int63n(scale))})
		}
		trace += model.TraceID(rng.Int63n(5) + 1)
	}
	blob := encodePostingsBlocks(nil, in)
	metas, err := decodeBlockMetas(blob)
	if err != nil {
		t.Fatal(err)
	}

	durs := make([]int64, len(in))
	for i, e := range in {
		durs[i] = int64(e.TsB - e.TsA)
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })

	skipped := 0
	var blk []IndexEntry
	for _, q := range []float64{0.01, 0.05, 0.10, 0.50} {
		within := durs[int(q*float64(len(durs)-1))]
		rows := 0
		for _, e := range in {
			if int64(e.TsB-e.TsA) <= within {
				rows++
			}
		}
		blocks := 0
		for _, m := range metas {
			if m.MinDur > within {
				skipped++
				continue
			}
			if blk, err = decodePostingsBlock(blob, m, blk[:0]); err != nil {
				t.Fatal(err)
			}
			for _, e := range blk {
				if int64(e.TsB-e.TsA) <= within {
					blocks++
				}
			}
		}
		if blocks != rows {
			t.Fatalf("p%.0f within=%d: block skip counted %d matches, row filter %d", q*100, within, blocks, rows)
		}
	}
	if skipped == 0 {
		t.Fatal("no block was skipped: the MinDur skip went unexercised")
	}
}

// TestPostingsBlocksGolden pins the exact on-disk encoding. A diff here means
// the block format changed: existing segment files would no longer decode the
// same way, so any such change needs a format bump, not a silent re-encode.
func TestPostingsBlocksGolden(t *testing.T) {
	in := []IndexEntry{
		{Trace: 3, TsA: 100, TsB: 150},
		{Trace: 3, TsA: 200, TsB: 260},
		{Trace: 7, TsA: 180, TsB: 181},
	}
	const want = "03" + // count
		"03" + // first trace
		"c801" + // first tsA (varint 100)
		"04" + // last trace delta (7-3)
		"e802" + // last tsA (varint 180)
		"c801" + // minTsA 100
		"8804" + // maxTsB 260
		"02" + // minDur 1
		"0b" + // payload length
		"000064" + // entry 0: dTrace 0, ddTsA 0, dDur +50
		"00c80114" + // entry 1: dTrace 0, ddTsA +100, dDur +10
		"04ef0175" // entry 2: dTrace 4, ddTsA -120, dDur -59
	got := hex.EncodeToString(encodePostingsBlocks(nil, in))
	if got != want {
		t.Fatalf("golden encoding drifted:\n got  %s\n want %s", got, want)
	}
	back, err := decodeAllBlocks(encodePostingsBlocks(nil, in))
	if err != nil || !reflect.DeepEqual(back, in) {
		t.Fatalf("golden round trip: %v %v", back, err)
	}
}

// Corrupt inputs must error, never panic, and never over-allocate: the count
// guard rejects headers promising more entries than the payload could hold.
func TestBlockDecodeCorrupt(t *testing.T) {
	in := randomSortedRun(rand.New(rand.NewSource(3)), 200)
	blob := encodePostingsBlocks(nil, in)
	for cut := 1; cut < len(blob); cut++ {
		// Truncations either error or yield a prefix of whole blocks (a cut at
		// an exact block boundary is indistinguishable from a shorter run).
		got, err := decodeAllBlocks(blob[:cut])
		if err == nil && !reflect.DeepEqual(got, in[:len(got)]) {
			t.Fatalf("truncation at %d decoded to non-prefix", cut)
		}
	}
	for _, bad := range [][]byte{
		{0x00},       // zero count
		{0xff, 0x01}, // count > postingsBlockSize
		{0x01, 0x01, 0x02, 0x00, 0x02, 0x02, 0x04, 0x02, 0x7f}, // plen beyond blob
	} {
		if _, err := decodeAllBlocks(bad); err == nil {
			t.Fatalf("corrupt blob %x accepted", bad)
		}
	}
}

// benchRun builds a realistic run: join-sorted entries rebased onto an
// epoch-millisecond clock (production event logs carry large absolute
// timestamps; only deltas stay small).
func benchRun(n int) []IndexEntry {
	rng := rand.New(rand.NewSource(7))
	entries := randomSortedRun(rng, n)
	for i := range entries {
		entries[i].TsA += 1_700_000_000_000
		entries[i].TsB += 1_700_000_000_000
	}
	return entries
}

// BenchmarkBlockDecode measures the segment-tier read path: decoding a
// block-compressed run into join order (blocks are stored pre-sorted).
func BenchmarkBlockDecode(b *testing.B) {
	entries := benchRun(4096)
	blob := encodePostingsBlocks(nil, entries)
	metas, err := decodeBlockMetas(blob)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]IndexEntry, 0, len(entries))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = dst[:0]
		for _, m := range metas {
			if dst, err = decodePostingsBlock(blob, m, dst); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(entries)), "ns/entry")
	b.ReportMetric(float64(len(blob))/float64(len(entries)), "B/entry")
}

// BenchmarkRowDecodeSort measures the row-tier read path over the same
// entries: rows append in arrival order, so every read decodes the absolute
// varints and re-sorts into join order.
func BenchmarkRowDecodeSort(b *testing.B) {
	entries := benchRun(4096)
	shuffled := append([]IndexEntry(nil), entries...)
	rng := rand.New(rand.NewSource(8))
	// Arrival order is near-sorted, not random: displace lightly.
	for i := range shuffled {
		j := i - rng.Intn(8)
		if j < 0 {
			j = 0
		}
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	raw := encodeIndexEntries(nil, shuffled)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := decodeIndexEntries(raw)
		if err != nil {
			b.Fatal(err)
		}
		sortIndexEntries(dec)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(entries)), "ns/entry")
	b.ReportMetric(float64(len(raw))/float64(len(entries)), "B/entry")
}
