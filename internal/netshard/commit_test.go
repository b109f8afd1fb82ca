package netshard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"seqlog/internal/kvstore"
	"seqlog/internal/model"
	"seqlog/internal/storage"
)

// randomDelta draws 0-50 traces and 0-200 pairs, each pair's entries in no
// particular order, and meta rows every other time.
func randomDelta(rng *rand.Rand) *storage.Delta {
	d := storage.NewDelta()
	for i, n := 0, rng.Intn(51); i < n; i++ {
		evs := make([]model.TraceEvent, 1+rng.Intn(4))
		for j := range evs {
			evs[j] = model.TraceEvent{Activity: model.ActivityID(rng.Intn(30)), TS: model.Timestamp(rng.Intn(1000) - 100)}
		}
		d.Seqs[model.TraceID(rng.Intn(500))] = evs
	}
	for i, n := 0, rng.Intn(201); i < n; i++ {
		k := model.NewPairKey(model.ActivityID(rng.Intn(10)), model.ActivityID(rng.Intn(30)))
		for j, m := 0, 1+rng.Intn(6); j < m; j++ {
			tsA := model.Timestamp(rng.Intn(1000))
			d.Entries[k] = append(d.Entries[k], storage.IndexEntry{
				Trace: model.TraceID(rng.Intn(500)), TsA: tsA, TsB: tsA + model.Timestamp(rng.Intn(50)),
			})
		}
	}
	if rng.Intn(2) == 0 {
		d.Meta = map[string][]byte{"alphabet": []byte(fmt.Sprint("a\x00b\x00", rng.Intn(1000))), "policy": []byte("STNM")}
	}
	return d
}

// repeatedTraceBody is a commit body that names trace 5 twice.
func repeatedTraceBody() []byte {
	var w wbuf
	w.str("")
	w.u64(2)
	for range 2 {
		w.u64(5)
		w.blob(storage.EncodeSeqRow(nil, []model.TraceEvent{{Activity: 1, TS: 1}}))
	}
	w.u64(0)
	w.u64(0)
	return w.b
}

// TestDeltaCodec: a commit body decodes to the delta it was encoded from,
// and a malformed one fails ErrBadFrame and writes nothing.
func TestDeltaCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := range 50 {
		d := randomDelta(rng)
		period := []string{"", "2026-01"}[i%2]
		body := appendDelta(nil, period, d)
		gotPeriod, got, err := decodeDelta(body)
		if err != nil || gotPeriod != period || !reflect.DeepEqual(got, d) {
			t.Fatalf("round %d: decodeDelta(appendDelta(d)) = %q, %v, %v", i, gotPeriod, got, err)
		}
		// The decoded delta owns its bytes: clobbering the body changes
		// nothing.
		clear(body)
		if !reflect.DeepEqual(got, d) {
			t.Fatalf("round %d: decoded delta aliases the body", i)
		}
	}

	good := appendDelta(nil, "", &storage.Delta{
		Seqs: map[model.TraceID][]model.TraceEvent{3: {{Activity: 1, TS: 10}}},
		Meta: map[string][]byte{"alphabet": []byte("a")},
	})
	var huge wbuf
	huge.str("")
	huge.u64(1 << 40)
	var repeatedMeta wbuf
	repeatedMeta.str("")
	repeatedMeta.u64(0)
	repeatedMeta.u64(0)
	repeatedMeta.u64(2)
	for range 2 {
		repeatedMeta.str("alphabet")
		repeatedMeta.blob([]byte("a"))
	}
	store := kvstore.NewMemStore()
	tab := storage.NewTables(store)
	srv := NewServer(tab, store, ServerOptions{})
	defer srv.Close()
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"count too large", huge.b},
		{"repeated trace", repeatedTraceBody()},
		{"repeated meta key", repeatedMeta.b},
		{"truncated", good[:len(good)-1]},
		{"trailing bytes", append(append([]byte{}, good...), 0)},
	} {
		if _, _, err := decodeDelta(tc.body); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: decodeDelta = %v, want ErrBadFrame", tc.name, err)
		}
		if err := srv.applyCommit(tc.body); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: applyCommit = %v, want ErrBadFrame", tc.name, err)
		}
	}
	if n, _ := tab.NumTraces(context.Background()); n != 0 {
		t.Fatalf("a malformed commit wrote %d traces", n)
	}
	if _, ok, _ := tab.GetMeta("alphabet"); ok {
		t.Fatal("a malformed commit wrote a meta row")
	}
	if err := srv.applyCommit(good); err != nil {
		t.Fatalf("well-formed body: %v", err)
	}
	if n, _ := tab.NumTraces(context.Background()); n != 1 {
		t.Fatalf("well-formed body wrote %d traces, want 1", n)
	}
}

// TestClientCannotResizeServerCache: a client's SetCacheBudget leaves the
// shard server's postings cache as the server sized it, so one front end
// cannot empty or disable the cache every other front end reads through.
func TestClientCannotResizeServerCache(t *testing.T) {
	cl, tab := memBackends(t)
	ctx := context.Background()
	pair := model.NewPairKey(1, 2)
	commitEntries(t, cl, "", pair, storage.IndexEntry{Trace: 1, TsA: 1, TsB: 2})
	for range 2 {
		if _, err := cl.GetPostings(ctx, pair); err != nil {
			t.Fatal(err)
		}
	}
	before := tab.CacheStats()
	if before.Entries == 0 {
		t.Fatalf("cache not populated: %+v", before)
	}
	cl.SetCacheBudget(-1)
	if after := tab.CacheStats(); after != before {
		t.Fatalf("server cache changed by a client: %+v -> %+v", before, after)
	}
}
