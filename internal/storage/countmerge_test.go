package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"seqlog/internal/kvstore"
	"seqlog/internal/model"
)

// referenceMergeCounts is the Count merge as the store first wrote it:
// decode the whole row, fold the delta in through a map, sort by Other and
// re-encode. MergeCounts must produce the same bytes for every valid row.
func referenceMergeCounts(raw []byte, delta []CountEntry) ([]byte, error) {
	existing, err := decodeCounts(raw)
	if err != nil {
		return nil, err
	}
	idx := make(map[model.ActivityID]int, len(existing))
	for i, e := range existing {
		idx[e.Other] = i
	}
	for _, d := range delta {
		if i, ok := idx[d.Other]; ok {
			existing[i].SumDuration += d.SumDuration
			existing[i].Completions += d.Completions
		} else {
			idx[d.Other] = len(existing)
			existing = append(existing, d)
		}
	}
	sort.Slice(existing, func(i, j int) bool { return existing[i].Other < existing[j].Other })
	return EncodeCountRow(nil, existing), nil
}

// mergeStoredRow stores raw as a Count row (none when raw is nil), merges
// delta into it through MergeCounts and returns the stored result.
func mergeStoredRow(raw []byte, delta []CountEntry) ([]byte, error) {
	store := kvstore.NewMemStore()
	if raw != nil {
		store.Put(tableCount, activityKeyString(1), raw)
	}
	if err := NewTables(store).MergeCounts(1, delta); err != nil {
		return nil, err
	}
	out, _, err := store.Get(tableCount, activityKeyString(1))
	return out, err
}

// randomCountRow returns n entries with strictly ascending Others below
// 1<<30, durations of either sign.
func randomCountRow(rng *rand.Rand, n int) []CountEntry {
	others := map[model.ActivityID]bool{}
	for len(others) < n {
		others[model.ActivityID(rng.Int63n(1<<30))] = true
	}
	row := make([]CountEntry, 0, n)
	for o := range others {
		row = append(row, CountEntry{Other: o, SumDuration: rng.Int63n(1<<40) - 1<<39, Completions: rng.Int63n(1 << 20)})
	}
	slices.SortFunc(row, cmpOther)
	return row
}

// randomCountDelta draws 1..24 entries, each either summing into an Other
// of row or new to it, repeats included, sorted when sorted is set.
func randomCountDelta(rng *rand.Rand, row []CountEntry, sorted bool) []CountEntry {
	delta := make([]CountEntry, 1+rng.Intn(24))
	for i := range delta {
		o := model.ActivityID(rng.Int63n(1 << 30))
		switch {
		case len(row) > 0 && rng.Intn(2) == 0:
			o = row[rng.Intn(len(row))].Other
		case i > 0 && rng.Intn(5) == 0:
			o = delta[rng.Intn(i)].Other
		}
		delta[i] = CountEntry{Other: o, SumDuration: rng.Int63n(1<<20) - 1<<19, Completions: 1 + rng.Int63n(8)}
	}
	if sorted {
		slices.SortStableFunc(delta, cmpOther)
	}
	return delta
}

func TestMergeCountRowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for iter := 0; iter < 2000; iter++ {
		raw := EncodeCountRow(nil, randomCountRow(rng, rng.Intn(201)))
		delta := randomCountDelta(rng, mustDecodeCounts(t, raw), iter%2 == 0)
		before := slices.Clone(delta)
		want, err := referenceMergeCounts(raw, delta)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mergeStoredRow(raw, delta)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("iter %d (sorted delta %v): merged row differs from the reference\ngot:  %v\nwant: %v",
				iter, iter%2 == 0, mustDecodeCounts(t, got), mustDecodeCounts(t, want))
		}
		if !reflect.DeepEqual(delta, before) {
			t.Fatalf("iter %d: MergeCounts modified the caller's delta", iter)
		}
	}
}

func mustDecodeCounts(t *testing.T, raw []byte) []CountEntry {
	t.Helper()
	entries, err := decodeCounts(raw)
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// FuzzCountMerge: on any row the reference accepts, MergeCounts matches it —
// byte for byte when the row is canonical (its Others strictly ascend and
// re-encoding it gives the same bytes), entry for entry when only its
// varints are over-long — and refuses a row out of order with ErrCorrupt,
// as it refuses every row the reference cannot decode.
func FuzzCountMerge(f *testing.F) {
	row := EncodeCountRow(nil, []CountEntry{{Other: 2, SumDuration: 5, Completions: 1}, {Other: 9, SumDuration: -3, Completions: 2}})
	delta := EncodeCountRow(nil, []CountEntry{{Other: 9, SumDuration: 1, Completions: 1}, {Other: 4, SumDuration: 7, Completions: 1}})
	f.Add(row, delta)
	f.Add([]byte{}, delta)
	f.Add(EncodeCountRow(nil, []CountEntry{{Other: 9}, {Other: 2}}), delta)
	f.Add(row[:len(row)-1], delta)
	f.Fuzz(func(t *testing.T, raw, rawDelta []byte) {
		delta, err := decodeCounts(rawDelta)
		if err != nil || len(delta) == 0 {
			return
		}
		got, err := mergeStoredRow(raw, delta)
		entries, refErr := decodeCounts(raw)
		ascending := refErr == nil
		for i := 1; ascending && i < len(entries); i++ {
			ascending = entries[i-1].Other < entries[i].Other
		}
		if !ascending {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("invalid row %x merged: err %v", raw, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid row %x refused: %v", raw, err)
		}
		want, _ := referenceMergeCounts(raw, delta)
		if bytes.Equal(EncodeCountRow(nil, entries), raw) {
			if !bytes.Equal(got, want) {
				t.Fatalf("row %x delta %v:\ngot  %x\nwant %x", raw, delta, got, want)
			}
			return
		}
		if g, w := mustDecodeCounts(t, got), mustDecodeCounts(t, want); !reflect.DeepEqual(g, w) {
			t.Fatalf("row %x delta %v:\ngot  %v\nwant %v", raw, delta, g, w)
		}
	})
}

// countMergeFixture is a 160-entry row (a 160-activity alphabet's
// successors) and an 8-entry delta summing into some of them and adding
// others, the shape one flush merges per leading activity.
func countMergeFixture() (*Tables, []CountEntry) {
	rng := rand.New(rand.NewSource(160))
	row := make([]CountEntry, 0, 160)
	for o := 0; o < 320; o += 2 {
		row = append(row, CountEntry{Other: model.ActivityID(o), SumDuration: rng.Int63n(1 << 30), Completions: rng.Int63n(1 << 12)})
	}
	store := kvstore.NewMemStore()
	store.Put(tableCount, activityKeyString(1), EncodeCountRow(nil, row))
	delta := make([]CountEntry, 8)
	for i := range delta {
		delta[i] = CountEntry{Other: model.ActivityID(i * 37), SumDuration: 1000, Completions: 1}
	}
	return NewTables(store), delta
}

// TestMergeCountsAllocs keeps the decode out of MergeCounts: a merge
// allocates the row key, the merged row and the MemStore's copy of it.
func TestMergeCountsAllocs(t *testing.T) {
	tb, delta := countMergeFixture()
	allocs := testing.AllocsPerRun(100, func() {
		if err := tb.MergeCounts(1, delta); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("MergeCounts of 8 entries into a 160-entry row: %v allocs, want <= 3", allocs)
	}
}

func BenchmarkMergeCounts(b *testing.B) {
	tb, delta := countMergeFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tb.MergeCounts(1, delta); err != nil {
			b.Fatal(err)
		}
	}
}
