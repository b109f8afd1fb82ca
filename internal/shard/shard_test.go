package shard

import (
	"context"
	"reflect"
	"testing"

	"seqlog/internal/kvstore"
	"seqlog/internal/model"
	"seqlog/internal/query"
	"seqlog/internal/storage"
)

// TestShardRoutingGolden pins the routing function to concrete values. The
// on-disk layout of every sharded index depends on these staying put: if
// this table ever needs editing, existing shard directories stop reopening
// correctly (keys silently route to the wrong store), so a change here is a
// format break, not a refactor.
func TestShardRoutingGolden(t *testing.T) {
	cases := []struct {
		key         uint64
		n4, n7, n16 int
	}{
		{0x0, 0, 0, 0},
		{0x1, 1, 6, 9},
		{0x2, 2, 1, 2},
		{0x2a, 2, 4, 14},
		{0xdeadbeef, 3, 5, 7},
		{0x100000000, 1, 1, 5},
		{0xffffffffffffffff, 2, 4, 6},
		{0x20000000000001, 1, 4, 9},
	}
	for _, c := range cases {
		for _, pt := range []struct {
			n, want int
		}{{4, c.n4}, {7, c.n7}, {16, c.n16}} {
			if got := PairShard(model.PairKey(c.key), pt.n); got != pt.want {
				t.Errorf("PairShard(%#x, %d) = %d, want %d", c.key, pt.n, got, pt.want)
			}
			if got := TraceShard(model.TraceID(c.key), pt.n); got != pt.want {
				t.Errorf("TraceShard(%#x, %d) = %d, want %d", c.key, pt.n, got, pt.want)
			}
		}
		if got := PairShard(model.PairKey(c.key), 1); got != 0 {
			t.Errorf("PairShard(%#x, 1) = %d, want 0", c.key, got)
		}
	}
}

func TestMergeCountRows(t *testing.T) {
	ce := func(other uint32, sum, n int64) storage.CountEntry {
		return storage.CountEntry{Other: model.ActivityID(other), SumDuration: sum, Completions: n}
	}
	cases := []struct {
		name string
		rows [][]storage.CountEntry
		want []storage.CountEntry
	}{
		{"empty", nil, nil},
		{"single", [][]storage.CountEntry{{ce(1, 10, 2)}}, []storage.CountEntry{ce(1, 10, 2)}},
		{
			// Partial rows for the same activity on different shards must sum.
			"overlap",
			[][]storage.CountEntry{
				{ce(1, 10, 2), ce(3, 5, 1)},
				{ce(1, 7, 1), ce(2, 4, 4)},
			},
			[]storage.CountEntry{ce(1, 17, 3), ce(2, 4, 4), ce(3, 5, 1)},
		},
		{
			"disjoint-interleaved",
			[][]storage.CountEntry{
				{ce(2, 1, 1), ce(8, 1, 1)},
				{ce(1, 1, 1), ce(9, 1, 1)},
				nil,
				{ce(5, 1, 1)},
			},
			[]storage.CountEntry{ce(1, 1, 1), ce(2, 1, 1), ce(5, 1, 1), ce(8, 1, 1), ce(9, 1, 1)},
		},
	}
	for _, c := range cases {
		if got := mergeCountRows(c.rows); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: mergeCountRows = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestMergeSortedStrings(t *testing.T) {
	got := mergeSortedStrings([][]string{
		{"a", "c", "p1"},
		{"b", "c"},
		nil,
		{"a", "z"},
	})
	want := []string{"a", "b", "c", "p1", "z"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("mergeSortedStrings = %v, want %v", got, want)
	}
	if got := mergeSortedStrings(nil); len(got) != 0 {
		t.Errorf("mergeSortedStrings(nil) = %v, want empty", got)
	}
}

// statsReads counts the pair-keyed statistics reads reaching one shard.
type statsReads struct {
	storage.Backend
	pairCounts, lastCompletions int
}

func (c *statsReads) GetPairCount(ctx context.Context, a, b model.ActivityID) (storage.CountEntry, bool, error) {
	c.pairCounts++
	return c.Backend.GetPairCount(ctx, a, b)
}

func (c *statsReads) GetLastCompletion(ctx context.Context, pair model.PairKey) (model.Timestamp, error) {
	c.lastCompletions++
	return c.Backend.GetLastCompletion(ctx, pair)
}

// statsOverFakes answers one Stats pair over four counting shards and
// returns the fakes and the pair.
func statsOverFakes(t *testing.T) ([]*statsReads, model.PairKey) {
	t.Helper()
	fakes := make([]*statsReads, 4)
	backends := make([]storage.Backend, len(fakes))
	for i := range fakes {
		fakes[i] = &statsReads{Backend: storage.NewTables(kvstore.NewMemStore())}
		backends[i] = fakes[i]
	}
	st, err := NewFromBackends(backends, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pair := model.NewPairKey(3, 5)
	d := &storage.Delta{Entries: map[model.PairKey][]storage.IndexEntry{pair: {{Trace: 1, TsA: 40, TsB: 42}, {Trace: 2, TsA: 30, TsB: 32}}}}
	if _, err := st.Commit("", d); err != nil {
		t.Fatal(err)
	}
	got, err := query.NewProcessor(st).Stats(context.Background(), model.Pattern{3, 5})
	if err != nil || got.Pairs[0].Completions != 2 || got.Pairs[0].AvgDuration != 2 || got.Pairs[0].LastCompletion != 42 {
		t.Fatalf("Stats = %+v, %v", got, err)
	}
	return fakes, pair
}

// TestStatsReadsLastCompletionFromOwningShard: the pair-routed row never
// splits, so a Stats pair read costs one GetLastCompletion, on the owner.
func TestStatsReadsLastCompletionFromOwningShard(t *testing.T) {
	fakes, pair := statsOverFakes(t)
	for i, f := range fakes {
		want := 0
		if i == PairShard(pair, len(fakes)) {
			want = 1
		}
		if f.lastCompletions != want {
			t.Errorf("shard %d served %d GetLastCompletion reads, want %d", i, f.lastCompletions, want)
		}
	}
}

// TestStatsReadsPairCountFromOwningShard: Commit puts a pair's whole
// Count entry on the pair's shard, so a Stats pair read costs one
// GetPairCount, on the owner.
func TestStatsReadsPairCountFromOwningShard(t *testing.T) {
	fakes, pair := statsOverFakes(t)
	for i, f := range fakes {
		want := 0
		if i == PairShard(pair, len(fakes)) {
			want = 1
		}
		if f.pairCounts != want {
			t.Errorf("shard %d served %d GetPairCount reads, want %d", i, f.pairCounts, want)
		}
	}
}
