// Package bench regenerates every table and figure of the paper's
// evaluation (§5). Each experiment is a named function printing the same
// rows/series the paper reports; cmd/seqbench drives them and EXPERIMENTS.md
// records paper-vs-measured shape comparisons.
//
// Absolute numbers differ from the paper (different machine, simulated
// substrates); what must reproduce is the shape: who wins, how methods
// scale, where crossovers fall. Config.Scale shrinks the datasets for
// constrained machines — 1.0 regenerates the published sizes.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"text/tabwriter"
	"time"

	"seqlog/internal/index"
	"seqlog/internal/kvstore"
	"seqlog/internal/loggen"
	"seqlog/internal/model"
	"seqlog/internal/pairs"
	"seqlog/internal/query"
	"seqlog/internal/storage"
)

// Config tunes a benchmark run.
type Config struct {
	// Scale multiplies dataset sizes; 1.0 is paper scale, the default
	// 0.05 finishes on a small machine in minutes.
	Scale float64
	// Workers is the "all cores" worker count for parallel columns (0 =
	// GOMAXPROCS).
	Workers int
	// BuildRepeats is how many times each index build is measured
	// (the paper used 5; builds dominate runtime, default 1).
	BuildRepeats int
	// QueryRepeats is how many times each query batch is measured
	// (default 5, as in the paper).
	QueryRepeats int
	// Out receives the report (default os.Stdout via cmd).
	Out io.Writer
	// Datasets, when non-empty, restricts table experiments to the named
	// catalog entries.
	Datasets []string
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.05
	}
	if c.BuildRepeats <= 0 {
		c.BuildRepeats = 1
	}
	if c.QueryRepeats <= 0 {
		c.QueryRepeats = 5
	}
	return c
}

// Runner executes experiments, caching generated datasets and built indices
// across experiments of one invocation.
type Runner struct {
	cfg    Config
	logs   map[string]*model.Log
	tables map[string]*storage.Tables // key: dataset|policy
}

// NewRunner returns a runner.
func NewRunner(cfg Config) *Runner {
	return &Runner{
		cfg:    cfg.withDefaults(),
		logs:   make(map[string]*model.Log),
		tables: make(map[string]*storage.Tables),
	}
}

// Experiments lists all experiment names in report order.
func Experiments() []string {
	return []string{
		"table4", "figure2", "table5", "figure3", "table6", "table7",
		"figure4", "table8", "figure5", "figure6", "figure7",
		"recall", "incremental", "partitions", "baseline19",
	}
}

// Run executes one named experiment.
func (r *Runner) Run(name string) error {
	switch name {
	case "table4":
		return r.Table4()
	case "figure2":
		return r.Figure2()
	case "table5":
		return r.Table5()
	case "figure3":
		return r.Figure3()
	case "table6":
		return r.Table6()
	case "table7":
		return r.Table7()
	case "figure4":
		return r.Figure4()
	case "table8":
		return r.Table8()
	case "figure5":
		return r.Figure5()
	case "figure6":
		return r.Figure6()
	case "figure7":
		return r.Figure7()
	case "recall":
		return r.Recall()
	case "incremental":
		return r.Incremental()
	case "partitions":
		return r.Partitions()
	case "baseline19":
		return r.Baseline19()
	default:
		return fmt.Errorf("bench: unknown experiment %q (known: %v)", name, Experiments())
	}
}

// RunAll executes every experiment.
func (r *Runner) RunAll() error {
	for _, name := range Experiments() {
		if err := r.Run(name); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// datasets returns the catalog, filtered by config.
func (r *Runner) datasets() []loggen.DatasetSpec {
	specs := loggen.Catalog()
	if len(r.cfg.Datasets) == 0 {
		return specs
	}
	keep := make(map[string]bool, len(r.cfg.Datasets))
	for _, n := range r.cfg.Datasets {
		keep[n] = true
	}
	var out []loggen.DatasetSpec
	for _, s := range specs {
		if keep[s.Name] {
			out = append(out, s)
		}
	}
	return out
}

// log materialises (and caches) one catalog dataset at the configured scale.
func (r *Runner) log(spec loggen.DatasetSpec) *model.Log {
	if l, ok := r.logs[spec.Name]; ok {
		return l
	}
	l := spec.Generate(r.cfg.Scale)
	r.logs[spec.Name] = l
	return l
}

// buildTables indexes a log into fresh tables and reports the build time
// (averaged over BuildRepeats; the returned tables come from the last run).
func (r *Runner) buildTables(log *model.Log, policy model.Policy, method pairs.Method, workers int) (*storage.Tables, time.Duration) {
	var (
		tables *storage.Tables
		total  time.Duration
	)
	for i := 0; i < r.cfg.BuildRepeats; i++ {
		tb := storage.NewTables(kvstore.NewMemStore())
		b, err := index.NewBuilder(tb, index.Options{Policy: policy, Method: method, Workers: workers})
		if err != nil {
			panic(err) // static configuration; cannot fail at runtime
		}
		events := log.Events()
		start := time.Now()
		if _, err := b.Update(events); err != nil {
			panic(err)
		}
		total += time.Since(start)
		tables = tb
	}
	return tables, total / time.Duration(r.cfg.BuildRepeats)
}

// indexedTables returns cached tables for (dataset, policy), building them
// with the Indexing method and all workers if needed.
func (r *Runner) indexedTables(spec loggen.DatasetSpec, policy model.Policy) *storage.Tables {
	key := spec.Name + "|" + policy.String()
	if tb, ok := r.tables[key]; ok {
		return tb
	}
	tb, _ := r.buildTables(r.log(spec), policy, pairs.Indexing, r.cfg.Workers)
	r.tables[key] = tb
	return tb
}

// samplePatterns draws n patterns of the given length that occur verbatim
// (contiguously) in the log, as the paper's random query patterns do.
func samplePatterns(log *model.Log, length, n int, seed int64) []model.Pattern {
	rng := rand.New(rand.NewSource(seed))
	var out []model.Pattern
	// Collect candidate traces long enough for the pattern.
	var candidates []*model.Trace
	for _, tr := range log.Traces {
		if tr.Len() >= length {
			candidates = append(candidates, tr)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	for len(out) < n {
		tr := candidates[rng.Intn(len(candidates))]
		start := rng.Intn(tr.Len() - length + 1)
		p := make(model.Pattern, length)
		for i := 0; i < length; i++ {
			p[i] = tr.Events[start+i].Activity
		}
		out = append(out, p)
	}
	return out
}

// timeQueries measures the mean wall time of running fn once per pattern,
// averaged over QueryRepeats rounds.
func (r *Runner) timeQueries(patterns []model.Pattern, fn func(model.Pattern)) time.Duration {
	if len(patterns) == 0 {
		return 0
	}
	var total time.Duration
	for rep := 0; rep < r.cfg.QueryRepeats; rep++ {
		start := time.Now()
		for _, p := range patterns {
			fn(p)
		}
		total += time.Since(start)
	}
	return total / time.Duration(r.cfg.QueryRepeats*len(patterns))
}

// out returns the report writer.
func (r *Runner) out() io.Writer {
	if r.cfg.Out != nil {
		return r.cfg.Out
	}
	return io.Discard
}

// section prints an experiment header.
func (r *Runner) section(title, note string) {
	fmt.Fprintf(r.out(), "\n== %s ==\n", title)
	if note != "" {
		fmt.Fprintf(r.out(), "%s\n", note)
	}
}

// table renders rows with aligned columns.
func (r *Runner) table(header []string, rows [][]string) {
	tw := tabwriter.NewWriter(r.out(), 2, 4, 2, ' ', 0)
	for i, h := range header {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, h)
	}
	fmt.Fprintln(tw)
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, cell)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

func secs(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }

func msecs(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000) }

// queryProcessor builds a processor over tables.
func proc(tb *storage.Tables) *query.Processor { return query.NewProcessor(tb) }

// sortedCopy returns a sorted copy of xs (used for distribution summaries).
func sortedCopy(xs []int) []int {
	cp := append([]int(nil), xs...)
	sort.Ints(cp)
	return cp
}

// percentile returns the p-quantile (0..100) of sorted xs.
func percentile(sorted []int, p int) int {
	if len(sorted) == 0 {
		return 0
	}
	i := p * (len(sorted) - 1) / 100
	return sorted[i]
}
