package seqlog

import (
	"context"
	"testing"
)

// TestBenchmarkContract uses every Config field and every compat.go name the
// separate benchmark module uses, the way it uses them, so none of them can
// be deleted before the benchmark stops passing it: that module is not part
// of `go test ./...`, this test is. Config.Segments is accepted and ignored.
func TestBenchmarkContract(t *testing.T) {
	ctx := context.Background()
	for _, cfg := range []Config{
		{Dir: t.TempDir(), Segments: true},
		{Dir: t.TempDir(), Segments: true, CacheBytes: 1 << 20},
		{Dir: t.TempDir(), Shards: 2, Segments: true},
	} {
		eng, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		app, err := eng.OpenStream(StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Append(shopEvents()); err != nil {
			t.Fatal(err)
		}
		if err := app.Flush(); err != nil {
			t.Fatal(err)
		}
		app.Close()
		if err := eng.Freeze(); err != nil {
			t.Fatal(err)
		}
		if err := eng.Compact(); err != nil {
			t.Fatal(err)
		}
		if st := eng.SegmentStats(); st.Segments == 0 {
			t.Fatalf("%+v: no segment after Freeze and Compact: %+v", cfg, st)
		}

		p := []string{"search", "pay"}
		for _, c := range []struct {
			name           string
			legacy, option func() (any, error)
		}{
			{"DetectCtx", func() (any, error) { return eng.DetectCtx(ctx, p) },
				func() (any, error) { return eng.Detect(ctx, p, DetectOptions{}) }},
			{"DetectWithinCtx", func() (any, error) { return eng.DetectWithinCtx(ctx, p, 100) },
				func() (any, error) { return eng.Detect(ctx, p, DetectOptions{Within: 100}) }},
			{"StatsCtx", func() (any, error) { return eng.StatsCtx(ctx, p) },
				func() (any, error) { return eng.Stats(ctx, p, StatsOptions{}) }},
			{"ExploreCtx", func() (any, error) { return eng.ExploreCtx(ctx, p[:1], Accurate, ExploreOptions{}) },
				func() (any, error) { return eng.Explore(ctx, p[:1], ExploreOptions{Mode: Accurate}) }},
		} {
			if l, o := jrun(t, c.legacy), jrun(t, c.option); l != o || l == "null" {
				t.Errorf("%+v: %s = %s, options call = %s", cfg, c.name, l, o)
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}

	f := startNetFleet(t, []string{"", ""})
	defer f.Stop()
	eng, err := Open(Config{ShardAddrs: f.addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Ingest(shopEvents()); err != nil {
		t.Fatal(err)
	}
	if n, err := eng.NumTraces(); err != nil || n == 0 {
		t.Fatalf("fleet engine holds %d traces, %v", n, err)
	}
}
