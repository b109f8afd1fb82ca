package ingest

import (
	"io/fs"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"seqlog/internal/kvstore"
	"seqlog/internal/loggen"
	"seqlog/internal/model"
	"seqlog/internal/storage"
)

// BenchmarkIngestFlush drives the product pipeline the way a durable server
// ingests a log: max_5000 × 0.15 (about 30k events over 750 traces), each
// trace shifted by a random start offset and the whole log replayed in time
// order, 250 events per Append followed by a Flush, onto a fresh disk store
// per iteration. Besides the time per log it reports the events handed to
// pair extraction, the allocations and the store's on-disk bytes after
// Close, all per ingested event.
func BenchmarkIngestFlush(b *testing.B) {
	spec, err := loggen.Lookup("max_5000")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var events []model.Event
	for _, tr := range spec.Generate(0.15).Traces {
		off := model.Timestamp(rng.Int63n(20000))
		for _, ev := range tr.Events {
			events = append(events, model.Event{Trace: tr.ID, Activity: ev.Activity, TS: ev.TS + off})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })

	var reextracted, allocs, walBytes uint64
	var ms runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		ds, err := kvstore.OpenDisk(dir)
		if err != nil {
			b.Fatal(err)
		}
		p, err := New(storage.NewTables(ds), Options{Policy: model.STNM})
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		b.StartTimer()
		for lo := 0; lo < len(events); lo += 250 {
			if err := p.Append(events[lo:min(lo+250, len(events))]); err != nil {
				b.Fatal(err)
			}
			if err := p.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		if err := p.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		allocs += ms.Mallocs - before
		reextracted += uint64(p.Stats().Reextracted)
		if err := ds.Close(); err != nil {
			b.Fatal(err)
		}
		walBytes += dirBytes(b, dir)
		b.StartTimer()
	}
	n := float64(b.N) * float64(len(events))
	b.ReportMetric(float64(reextracted)/n, "reextracted/event")
	b.ReportMetric(float64(allocs)/n, "allocs/event")
	b.ReportMetric(float64(walBytes)/n, "walB/event")
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(b *testing.B, dir string) uint64 {
	var n uint64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		n += uint64(info.Size())
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	return n
}
