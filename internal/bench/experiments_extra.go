package bench

import (
	"context"
	"fmt"
	"time"

	"seqlog/internal/index"
	"seqlog/internal/kvstore"
	"seqlog/internal/model"
	"seqlog/internal/pairs"
	"seqlog/internal/storage"
	"seqlog/internal/subtree"
)

// Recall is an ablation beyond the paper: it quantifies the documented
// incompleteness of joining non-overlapping STNM pairs (Algorithm 2)
// relative to an exact per-trace scan, at the trace level. The paper treats
// the join as exact; DESIGN.md explains why it is not quite.
func (r *Runner) Recall() error {
	r.section("Ablation — STNM pair-join recall vs exact scan",
		"fraction of scan-matched traces also found by the index join (pattern lengths 2..5)")
	header := []string{"Log file", "len=2", "len=3", "len=4", "len=5"}
	var rows [][]string
	for _, spec := range r.datasets() {
		log := r.log(spec)
		tb := r.indexedTables(spec, model.STNM)
		q := proc(tb)
		row := []string{spec.Name}
		for plen := 2; plen <= 5; plen++ {
			ps := samplePatterns(log, plen, 30, int64(900+plen))
			found, total := 0, 0
			for _, p := range ps {
				scan, err := q.DetectScan(context.Background(), p, model.STNM)
				if err != nil {
					return err
				}
				scanTraces := make(map[model.TraceID]bool)
				for _, m := range scan {
					scanTraces[m.Trace] = true
				}
				joined, err := q.Detect(context.Background(), p)
				if err != nil {
					return err
				}
				joinSet := make(map[model.TraceID]bool, len(joined))
				for _, m := range joined {
					joinSet[m.Trace] = true
				}
				for id := range scanTraces {
					total++
					if joinSet[id] {
						found++
					}
				}
			}
			if total == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.4f", float64(found)/float64(total)))
		}
		rows = append(rows, row)
	}
	r.table(header, rows)
	return nil
}

// Incremental is an ablation of Algorithm 1: it ingests the same log in one
// batch versus many periodic batches and reports the overhead of the
// incremental path (Seq merging + boundary dedup) and verifies the index
// sizes agree.
func (r *Runner) Incremental() error {
	r.section("Ablation — incremental update overhead (Algorithm 1)",
		"same log ingested as 1 batch vs 10 periodic batches (STNM, Indexing flavor)")
	header := []string{"Log file", "one batch (s)", "10 batches (s)", "overhead", "pairs equal"}
	var rows [][]string
	for _, spec := range r.datasets() {
		log := r.log(spec)
		events := log.Events()

		oneTB := storage.NewTables(kvstore.NewMemStore())
		oneB, _ := index.NewBuilder(oneTB, index.Options{Policy: model.STNM, Method: pairs.Indexing, Workers: r.cfg.Workers})
		start := time.Now()
		if _, err := oneB.Update(events); err != nil {
			return err
		}
		oneDur := time.Since(start)

		manyTB := storage.NewTables(kvstore.NewMemStore())
		manyB, _ := index.NewBuilder(manyTB, index.Options{Policy: model.STNM, Method: pairs.Indexing, Workers: r.cfg.Workers})
		start = time.Now()
		chunk := (len(events) + 9) / 10
		for lo := 0; lo < len(events); lo += chunk {
			hi := lo + chunk
			if hi > len(events) {
				hi = len(events)
			}
			if _, err := manyB.Update(events[lo:hi]); err != nil {
				return err
			}
		}
		manyDur := time.Since(start)

		onePairs, _ := oneTB.NumIndexedPairs(context.Background(), "")
		manyPairs, _ := manyTB.NumIndexedPairs(context.Background(), "")
		oneOcc, manyOcc := countOccurrences(oneTB), countOccurrences(manyTB)

		rows = append(rows, []string{
			spec.Name, secs(oneDur), secs(manyDur),
			fmt.Sprintf("%.2fx", manyDur.Seconds()/oneDur.Seconds()),
			fmt.Sprint(onePairs == manyPairs && oneOcc == manyOcc),
		})
	}
	r.table(header, rows)
	return nil
}

func countOccurrences(tb *storage.Tables) int {
	n := 0
	tb.ScanIndex(context.Background(), "", func(_ model.PairKey, es []storage.IndexEntry) error {
		n += len(es)
		return nil
	})
	return n
}

// Partitions is an ablation of the §3.1.3 period partitioning: it splits the
// index over P period partitions and measures the query-time overhead of
// reading across partitions.
func (r *Runner) Partitions() error {
	spec, err := r.figureDataset()
	if err != nil {
		return err
	}
	r.section("Ablation — period-partitioned index (§3.1.3)",
		fmt.Sprintf("dataset %s; detection time (len=4) vs number of period partitions", spec.Name))
	log := r.log(spec)
	events := log.Events()
	ps := samplePatterns(log, 4, 50, 950)
	header := []string{"partitions", "build (s)", "ms/query"}
	var rows [][]string
	for _, parts := range []int{1, 2, 4, 8, 16} {
		tb := storage.NewTables(kvstore.NewMemStore())
		start := time.Now()
		chunk := (len(events) + parts - 1) / parts
		for pi := 0; pi < parts; pi++ {
			lo := pi * chunk
			hi := lo + chunk
			if lo >= len(events) {
				break
			}
			if hi > len(events) {
				hi = len(events)
			}
			b, _ := index.NewBuilder(tb, index.Options{
				Policy: model.STNM, Method: pairs.Indexing,
				Workers: r.cfg.Workers, Period: fmt.Sprintf("p%02d", pi),
			})
			if _, err := b.Update(events[lo:hi]); err != nil {
				return err
			}
		}
		build := time.Since(start)
		q := proc(tb)
		d := r.timeQueries(ps, func(p model.Pattern) { q.Detect(context.Background(), p) })
		rows = append(rows, []string{fmt.Sprint(parts), secs(build), msecs(d)})
	}
	r.table(header, rows)
	return nil
}

// Baseline19 is an ablation of the [19] baseline itself: the paper's
// artifact materialises and comparison-sorts the full subtree space, which
// collapses on small-alphabet logs (long shared prefixes make comparisons
// expensive) — our MaterializedIndex reproduces that. A modern prefix-
// doubling suffix array removes the pathology; the gap between the two
// explains why the published Table 6 shows [19] two orders of magnitude
// behind on the real logs.
func (r *Runner) Baseline19() error {
	r.section("Ablation — [19] construction variants (seconds)",
		"materialised subtree space (as the paper's artifact) vs prefix-doubling suffix array")
	header := []string{"Log file", "Activities", "Materialised", "Prefix-doubling SA"}
	var rows [][]string
	for _, spec := range r.datasets() {
		log := r.log(spec)
		start := time.Now()
		subtree.BuildMaterialized(log)
		mat := time.Since(start)
		start = time.Now()
		subtree.BuildLogIndex(log)
		sa := time.Since(start)
		rows = append(rows, []string{spec.Name, fmt.Sprint(spec.Activities), secs(mat), secs(sa)})
	}
	r.table(header, rows)
	return nil
}

// JoinOrder is an ablation beyond the paper: Algorithm 2 joins pair rows
// left to right, so a selective pair late in the pattern cannot prune early
// work; DetectPlanned intersects the rows' trace sets first. Same results,
// different cost — the gap grows with pattern length.
func (r *Runner) JoinOrder() error {
	r.section("Ablation — Algorithm 2 join order (milliseconds per query)",
		"left-to-right join (paper) vs trace-set prefilter planner, per pattern length")
	header := []string{"Log file", "len", "left-to-right", "planned"}
	var rows [][]string
	for _, spec := range r.datasets() {
		log := r.log(spec)
		tb := r.indexedTables(spec, model.STNM)
		q := proc(tb)
		for _, plen := range []int{2, 5, 10} {
			ps := samplePatterns(log, plen, 50, int64(970+plen))
			if len(ps) == 0 {
				continue
			}
			plain := r.timeQueries(ps, func(p model.Pattern) { q.Detect(context.Background(), p) })
			planned := r.timeQueries(ps, func(p model.Pattern) { q.DetectPlanned(context.Background(), p) })
			rows = append(rows, []string{spec.Name, fmt.Sprint(plen), msecs(plain), msecs(planned)})
		}
	}
	r.table(header, rows)
	return nil
}
