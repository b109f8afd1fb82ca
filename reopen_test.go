package seqlog

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// reopenAnswers renders every query family over the workload, the scan —
// the path that reads the policy and the order — included, plus how the
// engine reports the store was built.
func reopenAnswers(t *testing.T, e *Engine, w oracleWorkload) []string {
	t.Helper()
	ctx := context.Background()
	info, err := e.Info()
	if err != nil {
		t.Fatal(err)
	}
	out := []string{fmt.Sprintf("policy=%s shards=%d partial=%v partitions=%v traces=%d",
		info.Policy, info.Shards, e.PartialOrder(), info.Partitions, info.Traces)}
	add := func(fn func() (any, error)) { out = append(out, jrun(t, fn)) }
	for _, p := range w.patterns {
		add(func() (any, error) { return e.Detect(ctx, p, DetectOptions{}) })
		add(func() (any, error) { return e.Detect(ctx, p, DetectOptions{Scan: true}) })
		add(func() (any, error) { return e.Detect(ctx, p, DetectOptions{Within: 40}) })
		add(func() (any, error) { return e.Stats(ctx, p, StatsOptions{AllPairs: true}) })
	}
	for _, p := range w.prefixes {
		for _, mode := range []ExploreMode{Accurate, Fast, Hybrid} {
			add(func() (any, error) { return e.Explore(ctx, p, ExploreOptions{Mode: mode, TopK: 3}) })
		}
		add(func() (any, error) { return e.Explore(ctx, p, ExploreOptions{Position: at(0), TopK: 2}) })
	}
	return out
}

// TestReopenTakesBuildFromStore: a store says how it was built. Reopened
// with Config{Dir} alone, a store created with SC, with partial order, with
// three shards or with a separate ShardDir answers every query family
// byte-identically to the engine that built it.
func TestReopenTakesBuildFromStore(t *testing.T) {
	w := oracleLog(57)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"sc", Config{Policy: "SC"}},
		{"partial", Config{PartialOrder: true}},
		{"3-shards", Config{Shards: 3}},
		{"shard-dir", Config{Shards: 2, ShardDir: "set below"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Dir, cfg.Workers = t.TempDir(), 2
			if cfg.ShardDir != "" {
				cfg.ShardDir = t.TempDir()
			}
			built, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			oracleIngest(t, tc.name, built, w)
			want := reopenAnswers(t, built, w)
			if err := built.Close(); err != nil {
				t.Fatal(err)
			}

			reopened, err := Open(Config{Dir: cfg.Dir})
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			got := reopenAnswers(t, reopened, w)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("answer %d diverges after a Config{Dir} reopen:\n built:    %s\n reopened: %s", i, want[i], got[i])
				}
			}
		})
	}
}

// TestReopenExplicitMismatchFails: a Config value that disagrees with what
// the store pins still fails Open, with the errors that name the mismatch.
func TestReopenExplicitMismatchFails(t *testing.T) {
	create := func(cfg Config) string {
		t.Helper()
		cfg.Dir = t.TempDir()
		e, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Ingest(shopEvents()); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		return cfg.Dir
	}
	sc, total, sharded := create(Config{Policy: "SC"}), create(Config{}), create(Config{Shards: 3})
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Dir: sc, Policy: "STNM"}, "store was indexed with policy SC, engine configured for STNM"},
		{Config{Dir: total, PartialOrder: true}, "store was indexed with total order, engine configured for partial"},
		{Config{Dir: sharded, Shards: 2, ShardDir: sharded}, "store was created with 3 shard(s), engine configured for 2"},
		{Config{Dir: sharded, Shards: 1}, "holds a sharded index"},
		{Config{Dir: total, Shards: 2}, "holds a single-store index"},
	} {
		e, err := Open(tc.cfg)
		if err == nil {
			e.Close()
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Open(%+v) = %v, want an error containing %q", tc.cfg, err, tc.want)
		}
	}
}
