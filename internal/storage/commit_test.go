package storage_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"seqlog/internal/kvstore"
	"seqlog/internal/model"
	"seqlog/internal/netshard"
	"seqlog/internal/shard"
	"seqlog/internal/storage"
)

// referenceCommit is a flush as the ingest pipeline wrote it before Commit
// existed: one group on the store, Seq rows by trace id, Index rows by pair
// key with each pair's entries sorted by (trace, TsB), one MergeCounts per
// leading activity after its last pair, then the meta rows, then the seal.
// An empty delta writes nothing.
func referenceCommit(t *testing.T, tb *storage.Tables, period string, d *storage.Delta) {
	t.Helper()
	if len(d.Seqs) == 0 && len(d.Entries) == 0 && len(d.Meta) == 0 {
		return
	}
	store := tb.Store()
	if err := store.BeginBatch(); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	traces := make([]model.TraceID, 0, len(d.Seqs))
	for id := range d.Seqs {
		traces = append(traces, id)
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i] < traces[j] })
	for _, id := range traces {
		must(tb.AppendSeq(id, d.Seqs[id]))
	}
	keys := make([]model.PairKey, 0, len(d.Entries))
	for k := range d.Entries {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var counts []storage.CountEntry
	for i, k := range keys {
		es := d.Entries[k]
		less := func(i, j int) bool {
			if es[i].Trace != es[j].Trace {
				return es[i].Trace < es[j].Trace
			}
			return es[i].TsB < es[j].TsB
		}
		if !sort.SliceIsSorted(es, less) {
			sort.Slice(es, less)
		}
		must(tb.AppendIndex(period, k, es))
		c := storage.CountEntry{Other: k.Second(), Completions: int64(len(es))}
		for _, e := range es {
			c.SumDuration += int64(e.TsB - e.TsA)
		}
		counts = append(counts, c)
		if i+1 == len(keys) || keys[i+1].First() != k.First() {
			must(tb.MergeCounts(k.First(), counts))
			counts = counts[:0]
		}
	}
	metaKeys := make([]string, 0, len(d.Meta))
	for k := range d.Meta {
		metaKeys = append(metaKeys, k)
	}
	sort.Strings(metaKeys)
	for _, k := range metaKeys {
		must(tb.PutMeta(k, d.Meta[k]))
	}
	w, err := store.(kvstore.GroupCommitter).SealBatch()
	must(err)
	must(w.Wait())
}

// randomDelta draws 0-50 traces and 0-200 pairs over ten leading
// activities, so several pairs share one, with each pair's entries in no
// particular order, and a meta row every other time.
func randomDelta(rng *rand.Rand) *storage.Delta {
	d := storage.NewDelta()
	for i, n := 0, rng.Intn(51); i < n; i++ {
		evs := make([]model.TraceEvent, 1+rng.Intn(4))
		for j := range evs {
			evs[j] = model.TraceEvent{Activity: model.ActivityID(rng.Intn(30)), TS: model.Timestamp(rng.Intn(1000))}
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
		d.Meta = map[string][]byte{"alphabet": []byte(fmt.Sprint("a\x00b\x00", rng.Intn(1000)))}
	}
	return d
}

// cloneDelta deep-copies d: Commit sorts entry slices in place.
func cloneDelta(d *storage.Delta) *storage.Delta {
	out := storage.NewDelta()
	for id, evs := range d.Seqs {
		out.Seqs[id] = slices.Clone(evs)
	}
	for k, es := range d.Entries {
		out.Entries[k] = slices.Clone(es)
	}
	out.Meta = d.Meta
	return out
}

func openDisk(t *testing.T, dir string) (*kvstore.DiskStore, *storage.Tables) {
	t.Helper()
	ds, err := kvstore.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	return ds, storage.NewTables(ds)
}

// sameStore closes both stores and asserts their WAL files and every row of
// every table are byte-identical.
func sameStore(t *testing.T, label string, got, want *kvstore.DiskStore, gotDir, wantDir string) {
	t.Helper()
	rows := func(s *kvstore.DiskStore) map[string]string {
		out := map[string]string{}
		tables, err := s.Tables()
		if err != nil {
			t.Fatal(err)
		}
		for _, tab := range tables {
			err := s.Scan(tab, func(k string, v []byte) error {
				out[tab+"/"+k] = string(v)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	g, w := rows(got), rows(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d rows, reference %d", label, len(g), len(w))
	}
	for k, v := range w {
		if g[k] != v {
			t.Fatalf("%s: row %q = %x, reference %x", label, k, g[k], v)
		}
	}
	for _, s := range []*kvstore.DiskStore{got, want} {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	gw, err := os.ReadFile(filepath.Join(gotDir, "WAL"))
	if err != nil {
		t.Fatal(err)
	}
	ww, err := os.ReadFile(filepath.Join(wantDir, "WAL"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gw, ww) {
		t.Fatalf("%s: WAL of %d bytes differs from the reference's %d", label, len(gw), len(ww))
	}
}

// TestCommitMatchesRowWrites: Commit writes a delta exactly as the row
// writes it replaced did — the same WAL bytes and the same rows — over a run
// of random deltas into the default and a named period, with and without
// meta: on one store and on each store of three shards, in process and over
// the wire, where a netshard server writes each shipped group through its
// own Tables.Commit.
func TestCommitMatchesRowWrites(t *testing.T) {
	const rounds = 12
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			deltas := make([]*storage.Delta, rounds)
			for i := range deltas {
				deltas[i] = randomDelta(rng)
			}
			for _, leg := range []struct {
				name   string
				n      int
				remote bool
			}{
				{"one store", 1, false},
				{"three shards", 3, false},
				{"one server", 1, true},
				{"three servers", 3, true},
			} {
				commitMatchesReference(t, leg.name, deltas, leg.n, leg.remote)
			}
		})
	}
}

// commitMatchesReference commits deltas through a backend over n disk
// stores — *Tables or shard.New in process, a netshard.Client or
// shard.NewFromBackends over servers when remote — and each store's part of
// them through referenceCommit into n more, then asserts the two sides'
// stores byte-identical.
func commitMatchesReference(t *testing.T, label string, deltas []*storage.Delta, n int, remote bool) {
	t.Helper()
	period := func(i int) string {
		if i%2 == 1 {
			return "2026-01"
		}
		return ""
	}
	dirs, refDirs := make([]string, n), make([]string, n)
	disks, refDisks := make([]*kvstore.DiskStore, n), make([]*kvstore.DiskStore, n)
	stores, backends := make([]kvstore.Store, n), make([]storage.Backend, n)
	refs := make([]*storage.Tables, n)
	var servers []*netshard.Server
	for i := range disks {
		dirs[i], refDirs[i] = t.TempDir(), t.TempDir()
		disks[i], backends[i] = openDisk(t, dirs[i])
		stores[i] = disks[i]
		refDisks[i], refs[i] = openDisk(t, refDirs[i])
		if remote {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := netshard.NewServer(backends[i].(*storage.Tables), disks[i], netshard.ServerOptions{})
			go srv.Serve(ln)
			servers = append(servers, srv)
			cl, err := netshard.Dial(ln.Addr().String(), netshard.Options{Shard: i})
			if err != nil {
				t.Fatal(err)
			}
			backends[i] = cl
		}
	}
	b := backends[0]
	if n > 1 {
		var err error
		if remote {
			b, err = shard.NewFromBackends(backends, shard.Options{})
		} else {
			b, err = shard.New(stores, shard.Options{})
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	for r, d := range deltas {
		handles, err := b.Commit(period(r), cloneDelta(d))
		if err != nil || len(handles) != n {
			t.Fatalf("%s round %d: Commit = %v, %v", label, r, handles, err)
		}
		for _, h := range handles {
			if h != nil {
				if err := h.Wait(); err != nil {
					t.Fatal(err)
				}
			}
		}
		parts := make([]*storage.Delta, n)
		for i := range parts {
			parts[i] = storage.NewDelta()
		}
		for id, evs := range d.Seqs {
			parts[shard.TraceShard(id, n)].Seqs[id] = slices.Clone(evs)
		}
		for k, es := range d.Entries {
			parts[shard.PairShard(k, n)].Entries[k] = slices.Clone(es)
		}
		for i, part := range parts {
			part.Meta = d.Meta
			referenceCommit(t, refs[i], period(r), part)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	for _, srv := range servers {
		srv.Close()
	}
	for i := range disks {
		sameStore(t, fmt.Sprintf("%s: store %d", label, i), disks[i], refDisks[i], dirs[i], refDirs[i])
	}
}
