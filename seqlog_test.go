package seqlog

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"seqlog/internal/kvstore"
	"seqlog/internal/model"
)

func openMem(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// detectTraces is the traces-only detection answer: Traces over the join.
func detectTraces(e *Engine, pattern []string) ([]int64, error) {
	ms, err := e.Detect(context.Background(), pattern, DetectOptions{})
	return Traces(ms), err
}

// at returns pos as an ExploreOptions.Position.
func at(pos int) *int { return &pos }

// shopEvents is a tiny clickstream: three sessions.
func shopEvents() []Event {
	return []Event{
		{Trace: 1, Activity: "search", Time: 1},
		{Trace: 1, Activity: "view", Time: 2},
		{Trace: 1, Activity: "cart", Time: 3},
		{Trace: 1, Activity: "pay", Time: 4},
		{Trace: 2, Activity: "search", Time: 1},
		{Trace: 2, Activity: "view", Time: 2},
		{Trace: 2, Activity: "exit", Time: 3},
		{Trace: 3, Activity: "search", Time: 1},
		{Trace: 3, Activity: "search", Time: 2},
		{Trace: 3, Activity: "view", Time: 3},
		{Trace: 3, Activity: "cart", Time: 4},
	}
}

// TestTraces: the traces-only answer is the distinct trace ids of the
// matches, ascending, and inherits Detect's options — the scan finds the
// trace the join misses (EXPERIMENTS finding 1: AYZ in YAYZ).
func TestTraces(t *testing.T) {
	ms := []Match{{Trace: 3}, {Trace: 1}, {Trace: 3}, {Trace: 2}, {Trace: 1}}
	if got := Traces(ms); !reflect.DeepEqual(got, []int64{1, 2, 3}) {
		t.Fatalf("Traces = %v, want [1 2 3]", got)
	}
	if got := Traces(nil); len(got) != 0 {
		t.Fatalf("Traces(nil) = %v", got)
	}

	e := openMem(t, Config{})
	if _, err := e.Ingest([]Event{
		{Trace: 1, Activity: "A", Time: 1}, {Trace: 1, Activity: "A", Time: 2},
		{Trace: 1, Activity: "B", Time: 3}, {Trace: 1, Activity: "A", Time: 4},
		{Trace: 1, Activity: "B", Time: 5},
		{Trace: 2, Activity: "B", Time: 1}, {Trace: 2, Activity: "B", Time: 2},
		{Trace: 2, Activity: "A", Time: 3},
		{Trace: 3, Activity: "Y", Time: 1}, {Trace: 3, Activity: "A", Time: 2},
		{Trace: 3, Activity: "Y", Time: 3}, {Trace: 3, Activity: "Z", Time: 4},
	}); err != nil {
		t.Fatal(err)
	}
	// Trace 1 completes A→B twice, trace 2 never: one id.
	if ids, err := detectTraces(e, []string{"A", "B"}); err != nil || !reflect.DeepEqual(ids, []int64{1}) {
		t.Fatalf("traces of AB = %v %v, want [1]", ids, err)
	}
	if ids, err := detectTraces(e, []string{"B", "A", "Q"}); err != nil || len(ids) != 0 {
		t.Fatalf("traces of an unknown pattern = %v %v", ids, err)
	}
	ms, err := e.Detect(context.Background(), []string{"A", "Y", "Z"}, DetectOptions{Scan: true})
	if got := Traces(ms); err != nil || !reflect.DeepEqual(got, []int64{3}) {
		t.Fatalf("scan traces of AYZ = %v %v, want [3]", got, err)
	}
	if ids, err := detectTraces(e, []string{"A", "Y", "Z"}); err != nil || len(ids) != 0 {
		t.Fatalf("join traces of AYZ = %v %v, want none", ids, err)
	}
}

func TestOpenDefaultsAndValidation(t *testing.T) {
	e := openMem(t, Config{})
	if r := e.rule(); r.Policy != model.STNM || r.PartialOrder {
		t.Fatalf("defaults not applied: %+v", r)
	}
	for _, policy := range []string{"bogus", "STAM"} {
		if _, err := Open(Config{Policy: policy}); err == nil {
			t.Fatalf("policy %q accepted", policy)
		}
	}
}

func TestIngestAndDetect(t *testing.T) {
	e := openMem(t, Config{})
	st, err := e.Ingest(shopEvents())
	if err != nil {
		t.Fatal(err)
	}
	if st.Traces != 3 || st.Events != 11 {
		t.Fatalf("stats = %+v", st)
	}
	ids, err := detectTraces(e, []string{"search", "view", "cart"})
	if err != nil || !reflect.DeepEqual(ids, []int64{1, 3}) {
		t.Fatalf("traces = %v %v", ids, err)
	}
	ms, err := e.Detect(context.Background(), []string{"search", "pay"}, DetectOptions{})
	if err != nil || len(ms) != 1 || ms[0].Trace != 1 {
		t.Fatalf("matches = %v %v", ms, err)
	}
	if !reflect.DeepEqual(ms[0].Times, []int64{1, 4}) {
		t.Fatalf("times = %v", ms[0].Times)
	}
	// Unknown activity: provably empty, no error.
	ms, err = e.Detect(context.Background(), []string{"search", "refund"}, DetectOptions{})
	if err != nil || ms != nil {
		t.Fatalf("unknown activity: %v %v", ms, err)
	}
	if _, err := e.Detect(context.Background(), nil, DetectOptions{}); err == nil {
		t.Fatal("empty pattern accepted")
	}
	n, err := e.NumTraces()
	if err != nil || n != 3 {
		t.Fatalf("NumTraces = %d %v", n, err)
	}
	acts := e.Activities()
	if len(acts) != 5 {
		t.Fatalf("activities = %v", acts)
	}
}

func TestDetectScanAgrees(t *testing.T) {
	e := openMem(t, Config{})
	if _, err := e.Ingest(shopEvents()); err != nil {
		t.Fatal(err)
	}
	a, err := e.Detect(context.Background(), []string{"search", "cart"}, DetectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Detect(context.Background(), []string{"search", "cart"}, DetectOptions{Scan: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("join %v != scan %v", a, b)
	}
	if ms, err := e.Detect(context.Background(), []string{"nope", "cart"}, DetectOptions{Scan: true}); err != nil || ms != nil {
		t.Fatalf("unknown activity scan: %v %v", ms, err)
	}
}

func TestStatsFacade(t *testing.T) {
	e := openMem(t, Config{})
	if _, err := e.Ingest(shopEvents()); err != nil {
		t.Fatal(err)
	}
	st, err := e.Stats(context.Background(), []string{"search", "view", "cart"}, StatsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Pairs) != 2 {
		t.Fatalf("pairs = %v", st.Pairs)
	}
	if st.Pairs[0].First != "search" || st.Pairs[0].Second != "view" {
		t.Fatalf("pair names: %+v", st.Pairs[0])
	}
	// (search,view) completes in all 3 traces; (view,cart) in 2.
	if st.Pairs[0].Completions != 3 || st.Pairs[1].Completions != 2 {
		t.Fatalf("completions: %+v", st.Pairs)
	}
	if st.MaxCompletions != 2 {
		t.Fatalf("bound = %d", st.MaxCompletions)
	}
	// Unknown activity yields the zero bound.
	st, err = e.Stats(context.Background(), []string{"search", "refund"}, StatsOptions{})
	if err != nil || st.MaxCompletions != 0 || st.Pairs != nil {
		t.Fatalf("unknown stats: %+v %v", st, err)
	}
}

func TestExploreFacade(t *testing.T) {
	e := openMem(t, Config{})
	if _, err := e.Ingest(shopEvents()); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ExploreMode{Accurate, Fast, Hybrid} {
		props, err := e.Explore(context.Background(), []string{"search", "view"}, ExploreOptions{Mode: mode, TopK: 2})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if len(props) == 0 {
			t.Fatalf("%s returned nothing", mode)
		}
		// "cart" follows search→view twice; it must rank first.
		if props[0].Activity != "cart" {
			t.Fatalf("%s ranking: %v", mode, props)
		}
	}
	acc, _ := e.Explore(context.Background(), []string{"search", "view"}, ExploreOptions{Mode: Accurate})
	for _, p := range acc {
		if !p.Exact {
			t.Fatalf("accurate proposal not exact: %+v", p)
		}
	}
	if _, err := e.Explore(context.Background(), []string{"search"}, ExploreOptions{Mode: "bogus"}); err == nil {
		t.Fatal("bogus mode accepted")
	}
	// An empty mode is Hybrid.
	hybrid := ExploreOptions{Mode: Hybrid, TopK: 1}
	want := jrun(t, func() (any, error) { return e.Explore(context.Background(), []string{"search"}, hybrid) })
	hybrid.Mode = ""
	if got := jrun(t, func() (any, error) { return e.Explore(context.Background(), []string{"search"}, hybrid) }); got != want {
		t.Fatalf("empty mode = %s, want the hybrid answer %s", got, want)
	}
	if props, err := e.Explore(context.Background(), []string{"refund"}, ExploreOptions{Mode: Fast}); err != nil || props != nil {
		t.Fatalf("unknown activity explore: %v %v", props, err)
	}
}

func TestIncrementalIngestAcrossBatches(t *testing.T) {
	e := openMem(t, Config{})
	evs := shopEvents()
	if _, err := e.Ingest(evs[:5]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(evs[5:]); err != nil {
		t.Fatal(err)
	}
	whole := openMem(t, Config{})
	if _, err := whole.Ingest(evs); err != nil {
		t.Fatal(err)
	}
	p := []string{"search", "view", "cart"}
	a, _ := e.Detect(context.Background(), p, DetectOptions{})
	b, _ := whole.Detect(context.Background(), p, DetectOptions{})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("incremental %v != batch %v", a, b)
	}
}

func TestDurableReopen(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(shopEvents()); err != nil {
		t.Fatal(err)
	}
	want, _ := e.Detect(context.Background(), []string{"search", "pay"}, DetectOptions{})
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	got, err := e2.Detect(context.Background(), []string{"search", "pay"}, DetectOptions{})
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("after reopen: %v %v (want %v)", got, err, want)
	}
	// The alphabet survived: activities resolve without re-ingestion.
	if len(e2.Activities()) != 5 {
		t.Fatalf("alphabet lost: %v", e2.Activities())
	}
	// Policy mismatch must be rejected.
	e2.Close()
	if _, err := Open(Config{Dir: dir, Policy: "SC"}); err == nil {
		t.Fatal("policy mismatch accepted")
	}
}

func TestPeriodsFacade(t *testing.T) {
	e := openMem(t, Config{})
	evs := shopEvents()
	if _, err := e.Ingest(evs[:5]); err != nil {
		t.Fatal(err)
	}
	if err := e.RotatePeriod("2026-07"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(evs[5:]); err != nil {
		t.Fatal(err)
	}
	periods, err := e.Periods()
	if err != nil || !reflect.DeepEqual(periods, []string{"2026-07"}) {
		t.Fatalf("periods = %v %v", periods, err)
	}
	// Queries span partitions.
	ids, err := detectTraces(e, []string{"search", "view", "cart"})
	if err != nil || !reflect.DeepEqual(ids, []int64{1, 3}) {
		t.Fatalf("cross-period detect = %v %v", ids, err)
	}
	if err := e.DropPeriod("2026-07"); err != nil {
		t.Fatal(err)
	}
	ids, _ = detectTraces(e, []string{"search", "view", "cart"})
	if !reflect.DeepEqual(ids, []int64{1}) {
		t.Fatalf("after drop = %v", ids)
	}
}

func TestPruneTracesFacade(t *testing.T) {
	e := openMem(t, Config{})
	if _, err := e.Ingest(shopEvents()); err != nil {
		t.Fatal(err)
	}
	funnel := []string{"search", "view", "cart", "pay"}
	before, err := e.Stats(context.Background(), funnel, StatsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.PruneTraces([]int64{1, 2}); err != nil {
		t.Fatal(err)
	}
	// Statistics are history too: pruning must not move them (trace 1 held
	// the only cart→pay completion).
	if after, err := e.Stats(context.Background(), funnel, StatsOptions{}); err != nil || !reflect.DeepEqual(after, before) {
		t.Fatalf("Stats moved across prune:\nbefore %+v\nafter  %+v (%v)", before, after, err)
	}
	n, _ := e.NumTraces()
	if n != 1 {
		t.Fatalf("NumTraces after prune = %d", n)
	}
	// History remains queryable.
	ids, _ := detectTraces(e, []string{"search", "pay"})
	if !reflect.DeepEqual(ids, []int64{1}) {
		t.Fatalf("history lost: %v", ids)
	}
}

// TestLegacyLastCheckedStoreOpens: a store whose lastchecked rows were written
// by a build that kept a per-trace map opens as is and answers Stats with the
// same LastCompletion; ingest leaves the row alone, and dropping the
// partition rewrites it as a scalar.
func TestLegacyLastCheckedStoreOpens(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var evs []Event
	for tr := int64(1); tr <= 3; tr++ {
		evs = append(evs, Event{Trace: tr, Activity: "a", Time: tr}, Event{Trace: tr, Activity: "b", Time: 10 * tr})
	}
	if _, err := e.Ingest(evs); err != nil {
		t.Fatal(err)
	}
	want, err := e.Stats(context.Background(), []string{"a", "b"}, StatsOptions{})
	if err != nil || want.Pairs[0].LastCompletion != 30 {
		t.Fatalf("Stats = %+v, %v", want, err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// The (a,b) row exactly as the map encoder wrote it for this log:
	// (uvarint trace, varint ts) for {1:10, 2:20, 3:30}.
	legacy := []byte{0x1, 0x14, 0x2, 0x28, 0x3, 0x3c}
	// rows returns the raw lastchecked table, after writing the (a,b) row as
	// replace when it is non-nil: this build writes no row on ingest.
	rows := func(replace []byte) map[string][]byte {
		t.Helper()
		st, err := kvstore.OpenDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if replace != nil {
			k := binary.BigEndian.AppendUint64(nil, uint64(model.NewPairKey(0, 1)))
			if err := st.Put("lastchecked", string(k), replace); err != nil {
				t.Fatal(err)
			}
		}
		out := map[string][]byte{}
		if err := st.Scan("lastchecked", func(k string, v []byte) error {
			out[k] = append([]byte(nil), v...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if got := rows(legacy); len(got) != 1 {
		t.Fatalf("lastchecked rows = %x, want the one (a,b) row", got)
	}

	e, err = Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := e.Stats(context.Background(), []string{"a", "b"}, StatsOptions{}); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("Stats over the legacy row = %+v, %v; want %+v", got, err, want)
	}
	if _, err := e.Ingest([]Event{{Trace: 4, Activity: "a", Time: 4}, {Trace: 4, Activity: "b", Time: 25}}); err != nil {
		t.Fatal(err)
	}
	got, err := e.Stats(context.Background(), []string{"a", "b"}, StatsOptions{})
	if err != nil || got.Pairs[0].Completions != 4 || got.Pairs[0].LastCompletion != 30 {
		t.Fatalf("Stats after one more ingest = %+v, %v", got, err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for k, v := range rows(nil) {
		if !bytes.Equal(v, legacy) {
			t.Fatalf("lastchecked row %x = %x after ingest, want the legacy row untouched", k, v)
		}
	}

	e, err = Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DropPeriod(""); err != nil {
		t.Fatal(err)
	}
	got, err = e.Stats(context.Background(), []string{"a", "b"}, StatsOptions{})
	if err != nil || got.Pairs[0].Completions != 4 || got.Pairs[0].LastCompletion != 30 {
		t.Fatalf("Stats after dropping the partition = %+v, %v", got, err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for k, v := range rows(nil) {
		if _, n := binary.Varint(v); n != len(v) {
			t.Fatalf("lastchecked row %x = %x after the drop, want one varint", k, v)
		}
	}
}

func TestIngestCSVAndXES(t *testing.T) {
	csvSrc := "trace,activity,timestamp\n1,a,1\n1,b,2\n2,a,5\n2,b,9\n"
	e := openMem(t, Config{})
	st, err := e.IngestCSV(strings.NewReader(csvSrc))
	if err != nil || st.Events != 4 {
		t.Fatalf("csv ingest: %+v %v", st, err)
	}
	ids, _ := detectTraces(e, []string{"a", "b"})
	if !reflect.DeepEqual(ids, []int64{1, 2}) {
		t.Fatalf("csv traces = %v", ids)
	}

	xesSrc := `<log><trace><string key="concept:name" value="7"/>
	  <event><string key="concept:name" value="a"/></event>
	  <event><string key="concept:name" value="b"/></event></trace></log>`
	e2 := openMem(t, Config{})
	st, err = e2.IngestXES(strings.NewReader(xesSrc))
	if err != nil || st.Events != 2 {
		t.Fatalf("xes ingest: %+v %v", st, err)
	}
	ids, _ = detectTraces(e2, []string{"a", "b"})
	if !reflect.DeepEqual(ids, []int64{7}) {
		t.Fatalf("xes traces = %v", ids)
	}
	if _, err := e2.IngestCSV(strings.NewReader("garbage")); err == nil {
		t.Fatal("bad csv accepted")
	}
	if _, err := e2.IngestXES(strings.NewReader("<log><trace>")); err == nil {
		t.Fatal("bad xes accepted")
	}
}

func TestSCConfigEndToEnd(t *testing.T) {
	e := openMem(t, Config{Policy: "SC"})
	if _, err := e.Ingest(shopEvents()); err != nil {
		t.Fatal(err)
	}
	// Under SC, search→cart is never contiguous.
	ids, err := detectTraces(e, []string{"search", "cart"})
	if err != nil || len(ids) != 0 {
		t.Fatalf("SC found non-contiguous pattern: %v %v", ids, err)
	}
	ids, err = detectTraces(e, []string{"view", "cart"})
	if err != nil || !reflect.DeepEqual(ids, []int64{1, 3}) {
		t.Fatalf("SC contiguous pattern: %v %v", ids, err)
	}
}

func TestExploreInsertFacade(t *testing.T) {
	e := openMem(t, Config{})
	if _, err := e.Ingest(shopEvents()); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ExploreMode{Accurate, Fast, Hybrid} {
		props, err := e.Explore(context.Background(), []string{"search", "cart"}, ExploreOptions{Mode: mode, Position: at(1), TopK: 2})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if len(props) == 0 || props[0].Activity != "view" {
			t.Fatalf("%s: %v", mode, props)
		}
	}
	if _, err := e.Explore(context.Background(), []string{"search"}, ExploreOptions{Mode: Fast, Position: at(9)}); err == nil {
		t.Fatal("bad position accepted")
	}
	if _, err := e.Explore(context.Background(), []string{"search"}, ExploreOptions{Mode: "bogus", Position: at(0)}); err == nil {
		t.Fatal("bogus mode accepted")
	}
	if props, err := e.Explore(context.Background(), []string{"refund"}, ExploreOptions{Mode: Fast, Position: at(0)}); err != nil || props != nil {
		t.Fatalf("unknown activity: %v %v", props, err)
	}
}

func TestDetectWithinFacade(t *testing.T) {
	e := openMem(t, Config{})
	if _, err := e.Ingest([]Event{
		{Trace: 1, Activity: "a", Time: 1}, {Trace: 1, Activity: "b", Time: 5},
		{Trace: 2, Activity: "a", Time: 1}, {Trace: 2, Activity: "b", Time: 5000},
	}); err != nil {
		t.Fatal(err)
	}
	ms, err := e.Detect(context.Background(), []string{"a", "b"}, DetectOptions{Within: 100})
	if err != nil || len(ms) != 1 || ms[0].Trace != 1 {
		t.Fatalf("windowed = %v %v", ms, err)
	}
	ms, err = e.Detect(context.Background(), []string{"a", "b"}, DetectOptions{Within: 0})
	if err != nil || len(ms) != 2 {
		t.Fatalf("unconstrained = %v %v", ms, err)
	}
	if ms, err := e.Detect(context.Background(), []string{"a", "zzz"}, DetectOptions{Within: 100}); err != nil || ms != nil {
		t.Fatalf("unknown activity: %v %v", ms, err)
	}
	// Filtering greedy scan matches by span is not a windowed match.
	if ms, err := e.Detect(context.Background(), []string{"a", "b"}, DetectOptions{Within: 100, Scan: true}); err == nil {
		t.Fatalf("scan with within answered %v", ms)
	}
}

func TestStatsAllPairsFacade(t *testing.T) {
	e := openMem(t, Config{})
	if _, err := e.Ingest(shopEvents()); err != nil {
		t.Fatal(err)
	}
	full, err := e.Stats(context.Background(), []string{"search", "view", "cart"}, StatsOptions{AllPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	consec, err := e.Stats(context.Background(), []string{"search", "view", "cart"}, StatsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Pairs) != 3 || len(consec.Pairs) != 2 {
		t.Fatalf("pair counts: %d / %d", len(full.Pairs), len(consec.Pairs))
	}
	if full.MaxCompletions > consec.MaxCompletions {
		t.Fatalf("all-pairs bound looser: %d > %d", full.MaxCompletions, consec.MaxCompletions)
	}
	if st, err := e.Stats(context.Background(), []string{"search", "zzz"}, StatsOptions{AllPairs: true}); err != nil || st.Pairs != nil {
		t.Fatalf("unknown activity: %+v %v", st, err)
	}
}

func TestTraceEventsAndInfoFacade(t *testing.T) {
	e := openMem(t, Config{})
	if _, err := e.Ingest(shopEvents()); err != nil {
		t.Fatal(err)
	}
	evs, ok, err := e.TraceEvents(1)
	if err != nil || !ok || len(evs) != 4 {
		t.Fatalf("TraceEvents = %v %v %v", evs, ok, err)
	}
	if evs[0].Activity != "search" || evs[3].Activity != "pay" || evs[0].Trace != 1 {
		t.Fatalf("events = %v", evs)
	}
	if _, ok, err := e.TraceEvents(99); err != nil || ok {
		t.Fatalf("missing trace: %v %v", ok, err)
	}

	info, err := e.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Traces != 3 || info.Activities != 5 || info.Policy != "STNM" {
		t.Fatalf("info = %+v", info)
	}
	if info.Partitions[""] == 0 {
		t.Fatalf("default partition pairs = %+v", info)
	}
	// After rotating, new pairs land in the named partition.
	if err := e.RotatePeriod("p2"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest([]Event{{Trace: 9, Activity: "x", Time: 1}, {Trace: 9, Activity: "y", Time: 2}}); err != nil {
		t.Fatal(err)
	}
	info, _ = e.Info()
	if info.Partitions["p2"] == 0 || len(info.Partitions) != 2 {
		t.Fatalf("partitioned info = %+v", info)
	}
}

// TestConcurrentQueriesDuringIngest drives queries from several goroutines
// while batches are being ingested; run with -race this validates the
// engine's concurrency contract (single writer, many readers).
func TestConcurrentQueriesDuringIngest(t *testing.T) {
	e := openMem(t, Config{Workers: 2})
	if _, err := e.Ingest(shopEvents()); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			batch := []Event{
				{Trace: int64(100 + i), Activity: "search", Time: 1},
				{Trace: int64(100 + i), Activity: "view", Time: 2},
				{Trace: int64(100 + i), Activity: "cart", Time: 3},
			}
			if _, err := e.Ingest(batch); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if _, err := e.Detect(context.Background(), []string{"search", "view"}, DetectOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Explore(context.Background(), []string{"search"}, ExploreOptions{Mode: Fast}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Stats(context.Background(), []string{"search", "view"}, StatsOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	ids, err := detectTraces(e, []string{"search", "view", "cart"})
	if err != nil || len(ids) != 22 { // traces 1, 3 and the 20 new ones
		t.Fatalf("after concurrent ingest: %d traces (%v)", len(ids), err)
	}
}

func TestPartialOrderFacade(t *testing.T) {
	if _, err := Open(Config{Policy: "SC", PartialOrder: true}); err == nil {
		t.Fatal("partial order with SC accepted")
	}
	e := openMem(t, Config{PartialOrder: true})
	// Session 1: {login, sync} concurrent, then work; session 2 ordered.
	if _, err := e.Ingest([]Event{
		{Trace: 1, Activity: "login", Time: 10}, {Trace: 1, Activity: "sync", Time: 10},
		{Trace: 1, Activity: "work", Time: 20},
		{Trace: 2, Activity: "login", Time: 10}, {Trace: 2, Activity: "sync", Time: 15},
		{Trace: 2, Activity: "work", Time: 20},
	}); err != nil {
		t.Fatal(err)
	}
	// login->sync only exists where they are strictly ordered.
	ids, err := detectTraces(e, []string{"login", "sync"})
	if err != nil || !reflect.DeepEqual(ids, []int64{2}) {
		t.Fatalf("ordered pair = %v %v", ids, err)
	}
	// login->work holds in both sessions.
	ids, err = detectTraces(e, []string{"login", "work"})
	if err != nil || !reflect.DeepEqual(ids, []int64{1, 2}) {
		t.Fatalf("cross-group pair = %v %v", ids, err)
	}
	// The exact scan agrees.
	ms, err := e.Detect(context.Background(), []string{"login", "sync"}, DetectOptions{Scan: true})
	if err != nil || len(ms) != 1 || ms[0].Trace != 2 {
		t.Fatalf("partial scan = %v %v", ms, err)
	}
}

// TestRejectedPartialOrderBatchWritesNothing: a partial-order batch that
// reaches back into one trace is refused whole — extraction runs before any
// write, so the batch's other traces leave no Seq row behind that the index
// lacks, and re-sending them later is accepted.
func TestRejectedPartialOrderBatchWritesNothing(t *testing.T) {
	e := openMem(t, Config{PartialOrder: true, Workers: 1})
	if _, err := e.Ingest([]Event{{Trace: 2, Activity: "a", Time: 1}, {Trace: 2, Activity: "b", Time: 5}}); err != nil {
		t.Fatal(err)
	}
	trace1 := []Event{{Trace: 1, Activity: "a", Time: 1}, {Trace: 1, Activity: "b", Time: 2}}
	_, err := e.Ingest(append(slices.Clone(trace1), Event{Trace: 2, Activity: "c", Time: 3}))
	if err == nil || !strings.Contains(err.Error(), "reaches back to ts 3") {
		t.Fatalf("reaching-back batch: %v", err)
	}
	if _, ok, err := e.TraceEvents(1); ok || err != nil {
		t.Fatalf("rejected batch stored trace 1 (%v)", err)
	}
	if evs, _, _ := e.TraceEvents(2); len(evs) != 2 {
		t.Fatalf("rejected batch changed trace 2: %v", evs)
	}
	joinAndScan := func(want []int64) {
		t.Helper()
		join, err1 := detectTraces(e, []string{"a", "b"})
		ms, err2 := e.Detect(context.Background(), []string{"a", "b"}, DetectOptions{Scan: true})
		if scan := Traces(ms); err1 != nil || err2 != nil || !reflect.DeepEqual(join, want) || !reflect.DeepEqual(scan, want) {
			t.Fatalf("a,b: join %v (%v), scan %v (%v), want %v", join, err1, scan, err2, want)
		}
	}
	joinAndScan([]int64{2})
	if _, err := e.Ingest(trace1); err != nil {
		t.Fatalf("re-sending trace 1: %v", err)
	}
	joinAndScan([]int64{1, 2})
}

// TestIngestCtxWaitsOutAdmittedBatch: once a batch is admitted, IngestCtx
// waits for its commit past the context's deadline and reports success, so
// a caller never sees an error for a committed batch it would then resend.
func TestIngestCtxWaitsOutAdmittedBatch(t *testing.T) {
	e := openMem(t, Config{})
	evs := streamEvents()
	e.mu.Lock() // the commit lock: the batch is admitted but cannot commit
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := e.IngestCtx(ctx, evs)
		done <- err
	}()
	for st := e.IngestInfo(); st == nil || st.Accepted < int64(len(evs)); st = e.IngestInfo() {
		time.Sleep(time.Millisecond)
	}
	<-ctx.Done()
	e.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatalf("IngestCtx of an admitted, committed batch = %v", err)
	}
	if n, err := e.NumTraces(); err != nil || n != 3 {
		t.Fatalf("traces = %d (%v), want 3", n, err)
	}
}

func TestPartialOrderDurableModeCheck(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{PartialOrder: true, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest([]Event{{Trace: 1, Activity: "a", Time: 1}, {Trace: 1, Activity: "b", Time: 1}}); err != nil {
		t.Fatal(err)
	}
	e.Close()
	// Reopening without the option takes the order the store pins;
	// reopening in the same mode works too.
	for _, partial := range []bool{false, true} {
		e2, err := Open(Config{PartialOrder: partial, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if !e2.PartialOrder() {
			t.Fatalf("reopen with PartialOrder %v lost the pinned partial order", partial)
		}
		e2.Close()
	}
	// Asking for partial order over a total-order store must be rejected.
	total := t.TempDir()
	e3, err := Open(Config{Dir: total})
	if err != nil {
		t.Fatal(err)
	}
	e3.Close()
	if _, err := Open(Config{PartialOrder: true, Dir: total}); err == nil || !strings.Contains(err.Error(), "indexed with total order") {
		t.Fatalf("order-mode mismatch: %v", err)
	}
}

func TestRotatePeriodKeepsPartialOrder(t *testing.T) {
	e := openMem(t, Config{PartialOrder: true})
	if _, err := e.Ingest([]Event{
		{Trace: 1, Activity: "a", Time: 1}, {Trace: 1, Activity: "b", Time: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.RotatePeriod("p2"); err != nil {
		t.Fatal(err)
	}
	// Concurrent events in the new period must still not pair.
	if _, err := e.Ingest([]Event{
		{Trace: 2, Activity: "a", Time: 1}, {Trace: 2, Activity: "b", Time: 1},
	}); err != nil {
		t.Fatal(err)
	}
	ids, err := detectTraces(e, []string{"a", "b"})
	if err != nil || len(ids) != 0 {
		t.Fatalf("concurrent events paired after rotation: %v %v", ids, err)
	}
}

func TestSalvageRecoveryFacade(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(shopEvents()); err != nil {
		t.Fatal(err)
	}
	if e.Recovery().Degraded() {
		t.Fatal("fresh engine reports degraded recovery")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt an early WAL record while many valid records follow: mid-log
	// corruption, not a droppable torn tail.
	walPath := filepath.Join(dir, "WAL")
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	wal[20] ^= 0xff
	if err := os.WriteFile(walPath, wal, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(Config{Dir: dir}); !errors.Is(err, kvstore.ErrCorruptWAL) {
		t.Fatalf("strict open on mid-log corruption: %v", err)
	}

	e2, err := Open(Config{Dir: dir, Salvage: true})
	if err != nil {
		t.Fatalf("salvage open: %v", err)
	}
	rec := e2.Recovery()
	if !rec.Degraded() || rec.DroppedRegions == 0 {
		t.Fatalf("salvage recovery not reported: %+v", rec)
	}
	info, err := e2.Info()
	if err != nil {
		t.Fatal(err)
	}
	if !info.Degraded || !info.Recovery.Salvaged {
		t.Fatalf("Info does not surface degraded state: %+v", info)
	}
	// The salvaged engine still answers queries over the surviving records.
	if _, err := e2.Detect(context.Background(), []string{"search", "pay"}, DetectOptions{}); err != nil {
		t.Fatalf("salvaged engine cannot query: %v", err)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}

	// Salvage compacted at open: a plain reopen is clean again.
	e3, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after salvage: %v", err)
	}
	defer e3.Close()
	if e3.Recovery().Degraded() {
		t.Fatal("salvage left a degraded on-disk state")
	}
}
