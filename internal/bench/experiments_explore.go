package bench

import (
	"context"
	"fmt"
	"sort"

	"seqlog/internal/model"
	"seqlog/internal/parallel"
	"seqlog/internal/query"
	"seqlog/internal/storage"
)

// explorePatterns is how many random patterns each continuation measurement
// averages over.
const explorePatterns = 20

// Figure5 compares the Accurate and Fast continuation strategies across
// query pattern lengths on max_10000 — the paper's Figure 5.
//
// Expected shape: Algorithm 3 as written grows like the detection curve of
// Figure 4; Fast is flat and orders of magnitude cheaper. The product's
// Accurate joins the pattern once for all candidates, so it no longer grows
// with pattern length.
func (r *Runner) Figure5() error {
	spec, err := r.figureDataset()
	if err != nil {
		return err
	}
	r.section("Figure 5 — continuation response time vs pattern length",
		fmt.Sprintf("dataset %s; mean milliseconds per exploration over %d patterns", spec.Name, explorePatterns))
	log := r.log(spec)
	tb := r.indexedTables(spec, model.STNM)
	q := proc(tb)
	header := []string{"pattern length", "Accurate", "Algorithm 3 (as written)", "Fast"}
	var rows [][]string
	for _, plen := range []int{1, 2, 3, 4, 5, 6} {
		ps := samplePatterns(log, plen, explorePatterns, int64(500+plen))
		if len(ps) == 0 {
			continue
		}
		tAcc := r.timeQueries(ps, func(p model.Pattern) {
			q.ExploreAccurate(context.Background(), p, query.ExploreOptions{})
		})
		tAlg3 := r.timeQueries(ps, func(p model.Pattern) { algorithm3(tb, q, p) })
		tFast := r.timeQueries(ps, func(p model.Pattern) {
			q.ExploreFast(context.Background(), p, query.ExploreOptions{})
		})
		rows = append(rows, []string{fmt.Sprint(plen), msecs(tAcc), msecs(tAlg3), msecs(tFast)})
	}
	r.table(header, rows)
	return nil
}

// Figure6 measures Hybrid response time as topK grows (pattern length 4),
// with Fast and Accurate as the two constant bounds — the paper's Figure 6.
//
// Expected shape: Hybrid grows roughly linearly in topK between the Fast
// floor and the Accurate ceiling; Algorithm 3 as written is the paper's
// ceiling, one detection per candidate.
func (r *Runner) Figure6() error {
	spec, err := r.figureDataset()
	if err != nil {
		return err
	}
	r.section("Figure 6 — hybrid continuation response time vs topK",
		fmt.Sprintf("dataset %s; pattern length 4; mean milliseconds per exploration", spec.Name))
	log := r.log(spec)
	tb := r.indexedTables(spec, model.STNM)
	q := proc(tb)
	ps := samplePatterns(log, 4, explorePatterns, 600)
	if len(ps) == 0 {
		ps = samplePatterns(log, 2, explorePatterns, 600)
	}

	tFast := r.timeQueries(ps, func(p model.Pattern) { q.ExploreFast(context.Background(), p, query.ExploreOptions{}) })
	tAcc := r.timeQueries(ps, func(p model.Pattern) { q.ExploreAccurate(context.Background(), p, query.ExploreOptions{}) })
	tAlg3 := r.timeQueries(ps, func(p model.Pattern) { algorithm3(tb, q, p) })

	header := []string{"topK", "Hybrid", "Fast (bound)", "Accurate (bound)", "Algorithm 3 (as written)"}
	var rows [][]string
	for _, k := range []int{0, 1, 2, 4, 8, 16, 32, 64, 128} {
		tHyb := r.timeQueries(ps, func(p model.Pattern) {
			q.ExploreHybrid(context.Background(), p, query.ExploreOptions{TopK: k})
		})
		rows = append(rows, []string{fmt.Sprint(k), msecs(tHyb), msecs(tFast), msecs(tAcc), msecs(tAlg3)})
	}
	r.table(header, rows)
	return nil
}

// Figure7 measures Hybrid accuracy as topK grows — the paper's Figure 7:
// ground truth is the Accurate proposal list A; accuracy is the fraction of
// A's top-|A| events found in Hybrid's top-|A| proposals.
//
// Expected shape: monotone increase to 1.0 once topK covers the candidates.
func (r *Runner) Figure7() error {
	spec, err := r.figureDataset()
	if err != nil {
		return err
	}
	r.section("Figure 7 — hybrid continuation accuracy vs topK",
		fmt.Sprintf("dataset %s; pattern length 4; ground truth = Accurate; mean over %d patterns", spec.Name, explorePatterns))
	log := r.log(spec)
	tb := r.indexedTables(spec, model.STNM)
	q := proc(tb)
	ps := samplePatterns(log, 4, explorePatterns, 700)
	if len(ps) == 0 {
		ps = samplePatterns(log, 2, explorePatterns, 700)
	}

	header := []string{"topK", "accuracy"}
	var rows [][]string
	for _, k := range []int{0, 1, 2, 4, 8, 16, 32, 64, 128} {
		var sum float64
		var counted int
		for _, p := range ps {
			acc, err := q.ExploreAccurate(context.Background(), p, query.ExploreOptions{})
			if err != nil {
				return err
			}
			truth := proposalEvents(acc)
			if len(truth) == 0 {
				continue
			}
			hyb, err := q.ExploreHybrid(context.Background(), p, query.ExploreOptions{TopK: k})
			if err != nil {
				return err
			}
			top := proposalEvents(hyb)
			if len(top) > len(truth) {
				top = top[:len(truth)]
			}
			hits := 0
			truthSet := make(map[model.ActivityID]bool, len(truth))
			for _, e := range truth {
				truthSet[e] = true
			}
			for _, e := range top {
				if truthSet[e] {
					hits++
				}
			}
			sum += float64(hits) / float64(len(truth))
			counted++
		}
		accuracy := 0.0
		if counted > 0 {
			accuracy = sum / float64(counted)
		}
		rows = append(rows, []string{fmt.Sprint(k), fmt.Sprintf("%.3f", accuracy)})
	}
	r.table(header, rows)
	return nil
}

// proposalEvents extracts the event ranking of proposals with at least one
// (claimed) completion.
func proposalEvents(props []query.Proposal) []model.ActivityID {
	var out []model.ActivityID
	for _, p := range props {
		if p.Completions > 0 {
			out = append(out, p.Event)
		}
	}
	return out
}

// algorithm3 is Algorithm 3 as the paper writes it: the successors of the
// pattern's last event from the Count table, each verified by a full
// detection of the extended pattern and ranked by Equation 1. It fans out
// over the cores like the product's Accurate, so the two columns differ only
// in the shared prefix join.
func algorithm3(tb *storage.Tables, q *query.Processor, p model.Pattern) ([]query.Proposal, error) {
	ctx := context.Background()
	cands, err := tb.GetCounts(ctx, p[len(p)-1])
	if err != nil {
		return nil, err
	}
	out, err := parallel.Map(cands, 0, func(c storage.CountEntry) (query.Proposal, error) {
		ms, err := q.Detect(ctx, append(append(model.Pattern{}, p...), c.Other))
		var gap int64
		for _, m := range ms {
			gap += int64(m.Timestamps[len(p)] - m.Timestamps[len(p)-1])
		}
		pr := query.Proposal{Event: c.Other, Completions: int64(len(ms)), Exact: true}
		if len(ms) > 0 {
			pr.AvgDuration = float64(gap) / float64(len(ms))
			pr.Score = float64(len(ms)) / pr.AvgDuration
			if pr.AvgDuration <= 0 {
				pr.Score = float64(len(ms))
			}
		}
		return pr, err
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out, err
}
