package seqlog

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"reflect"
	"sort"
	"testing"

	"seqlog/internal/kvstore"
	"seqlog/internal/loggen"
	"seqlog/internal/model"
	"seqlog/internal/storage"
)

// insertGoldens pins the ExploreInsert answers over three paper datasets:
// the CRC-32 of every answer's JSON, in a fixed order, per dataset. Any
// change to how insertion candidates are found or ranked moves a checksum.
var insertGoldens = map[string]uint32{
	"bpi_2013":  0x361426bb,
	"bpi_2020":  0x835145f6,
	"min_10000": 0x9d140a11,
}

var goldenDatasets = []string{"bpi_2013", "bpi_2020", "min_10000"}

// goldenEngine ingests the dataset at scale 0.05 into a memory engine and
// returns it with the first (up to) 8 activity names.
func goldenEngine(t *testing.T, dataset string) (*Engine, []string) {
	t.Helper()
	spec, err := loggen.Lookup(dataset)
	if err != nil {
		t.Fatal(err)
	}
	log := spec.Generate(0.05)
	names := log.Alphabet.Names()
	var events []Event
	for _, tr := range log.Traces {
		for _, ev := range tr.Events {
			events = append(events, Event{Trace: int64(tr.ID), Activity: names[ev.Activity], Time: int64(ev.TS)})
		}
	}
	eng := openMem(t, Config{Policy: "STNM"})
	if _, err := eng.Ingest(events); err != nil {
		t.Fatal(err)
	}
	if len(names) > 8 {
		names = names[:8]
	}
	return eng, names
}

// insertAnswersCRC checksums the insert-position Explore answers over the
// golden engine's 8×8 activity pairs, at positions 0–2, in every mode with
// TopK 3.
func insertAnswersCRC(t *testing.T, dataset string) uint32 {
	t.Helper()
	eng, names := goldenEngine(t, dataset)
	h := crc32.NewIEEE()
	for _, a := range names {
		for _, b := range names {
			for pos := 0; pos <= 2; pos++ {
				for _, mode := range []ExploreMode{Accurate, Fast, Hybrid} {
					props, err := eng.Explore(context.Background(), []string{a, b}, ExploreOptions{Mode: mode, Position: at(pos), TopK: 3})
					if err != nil {
						t.Fatalf("%s %s,%s@%d: %v", mode, a, b, pos, err)
					}
					raw, err := json.Marshal(props)
					if err != nil {
						t.Fatal(err)
					}
					h.Write(raw)
				}
			}
		}
	}
	return h.Sum32()
}

func TestExploreInsertGoldens(t *testing.T) {
	for _, dataset := range goldenDatasets {
		t.Run(dataset, func(t *testing.T) {
			if got, want := insertAnswersCRC(t, dataset), insertGoldens[dataset]; got != want {
				t.Errorf("ExploreInsert answers CRC-32 = %08x, want %08x", got, want)
			}
		})
	}
}

// TestLegacyReverseCountStoreOpens: a store written by an older build holds
// "rcount" rows (Count transposed, keyed by the trailing activity). It opens,
// keeps ingesting, and answers insert queries exactly like a fresh build —
// including for predecessors that first appear after the rows were written,
// which the stale rows do not list — and the rows are never rewritten.
func TestLegacyReverseCountStoreOpens(t *testing.T) {
	before := []Event{
		{Trace: 1, Activity: "a", Time: 1}, {Trace: 1, Activity: "b", Time: 3},
		{Trace: 2, Activity: "c", Time: 1}, {Trace: 2, Activity: "b", Time: 4},
	}
	after := []Event{
		{Trace: 3, Activity: "d", Time: 1}, {Trace: 3, Activity: "b", Time: 2},
		{Trace: 4, Activity: "e", Time: 1}, {Trace: 4, Activity: "a", Time: 5}, {Trace: 4, Activity: "b", Time: 6},
	}

	dir := t.TempDir()
	e, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(before); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Write the rcount rows an older build kept for this log: every Count
	// entry (first, other) listed under other.
	rcount := func(write bool) map[string]string {
		t.Helper()
		st, err := kvstore.OpenDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		rows := map[string][]storage.CountEntry{}
		if write {
			err = st.Scan("count", func(first string, raw []byte) error {
				entries, err := storage.DecodeCountRow(raw)
				for _, c := range entries {
					var key [4]byte
					binary.BigEndian.PutUint32(key[:], uint32(c.Other))
					c.Other = model.ActivityID(binary.BigEndian.Uint32([]byte(first)))
					rows[string(key[:])] = append(rows[string(key[:])], c)
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			for k, es := range rows {
				sort.Slice(es, func(i, j int) bool { return es[i].Other < es[j].Other })
				if err := st.Put("rcount", k, storage.EncodeCountRow(nil, es)); err != nil {
					t.Fatal(err)
				}
			}
		}
		out := map[string]string{}
		if err := st.Scan("rcount", func(k string, v []byte) error {
			out[k] = string(v)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	legacy := rcount(true)
	if len(legacy) != 1 {
		t.Fatalf("legacy rcount rows = %q, want the one row of b", legacy)
	}

	e, err = Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(after); err != nil {
		t.Fatal(err)
	}
	fresh := openMem(t, Config{})
	if _, err := fresh.Ingest(append(append([]Event(nil), before...), after...)); err != nil {
		t.Fatal(err)
	}
	for _, p := range [][]string{{"b"}, {"a", "b"}, {"e", "b"}} {
		for pos := 0; pos <= len(p); pos++ {
			for _, mode := range []ExploreMode{Accurate, Fast, Hybrid} {
				want := jrun(t, func() (any, error) {
					return fresh.Explore(context.Background(), p, ExploreOptions{Mode: mode, Position: at(pos), TopK: 1})
				})
				got := jrun(t, func() (any, error) {
					return e.Explore(context.Background(), p, ExploreOptions{Mode: mode, Position: at(pos), TopK: 1})
				})
				if got != want {
					t.Errorf("%s %v@%d over a legacy store = %s, want %s", mode, p, pos, got, want)
				}
			}
		}
	}
	// The predecessors of b include d and e, which the legacy row does not
	// list.
	props, err := e.Explore(context.Background(), []string{"b"}, ExploreOptions{Mode: Fast, Position: at(0)})
	if err != nil || len(props) != 4 {
		t.Fatalf("predecessors of b = %+v, %v; want a, c, d and e", props, err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rcount(false); !reflect.DeepEqual(got, legacy) {
		t.Fatalf("rcount rows rewritten: %q, want %q", got, legacy)
	}
}
