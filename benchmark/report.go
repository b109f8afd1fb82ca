package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is BENCHMARK.json: the one place metric names, units and
// regression bounds are defined.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Paths) == 0 || s.RunSeconds <= 0 || len(s.Workloads) == 0 {
		return nil, fmt.Errorf("%s: paths, run_seconds and workloads are required", path)
	}
	return &s, nil
}

func (s *benchSpec) workloadNames() []string {
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return names
}

// runRecord says where and how the numbers were produced.
type runRecord struct {
	Commit     string     `json:"commit"`
	NumCPU     int        `json:"nproc"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	GoVersion  string     `json:"go_version"`
	Kernel     string     `json:"kernel"`
	Processes  []procInfo `json:"processes"`
}

// procInfo is one spawned binary with the flags it ran under.
type procInfo struct {
	Name string   `json:"name"`
	Pid  int      `json:"pid"`
	Args []string `json:"args"`
}

func newRunRecord(root string) *runRecord {
	rec := &runRecord{
		Commit: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Kernel: "unknown",
	}
	// The driver's checkout is not a git repository; a developer's is.
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		rec.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		rec.Kernel = strings.TrimSpace(string(raw))
	}
	return rec
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Record *runRecord `json:"record"`
	Runs   []*result  `json:"runs"`
}

func (f *resultFile) write(path string) error {
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func (f *resultFile) allCorrect() bool {
	for _, r := range f.Runs {
		if !r.Correct {
			return false
		}
	}
	return true
}

// series collects the values of one metric of one workload across runs.
func (f *resultFile) series(workload, metric string, layer bool) []float64 {
	var xs []float64
	for _, r := range f.Runs {
		if r.Workload != workload {
			continue
		}
		m := r.Metrics
		if layer {
			m = r.Layers
		}
		if v, ok := m[metric]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

func (f *resultFile) workloads() []string {
	var names []string
	seen := map[string]bool{}
	for _, r := range f.Runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	return names
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// table prints every metric of every workload by name, with its unit, its
// bound and the number of samples behind it.
func (f *resultFile) table(spec *benchSpec, layers bool, w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, wl := range f.workloads() {
		var last *result
		runs := 0
		for _, r := range f.Runs {
			if r.Workload == wl {
				last = r
				runs++
			}
		}
		fmt.Fprintf(tw, "\n%s\truns=%d\tseed=%d\tattempted=%d\tfailed=%d\tcorrect=%v\n",
			wl, runs, last.Seed, last.Attempted, last.Failed, last.Correct)
		if last.Invalid != "" {
			fmt.Fprintf(tw, "  INVALID: %s\n", last.Invalid)
		}
		fmt.Fprintf(tw, "  metric\tmedian\tmin-max\tunit\tbound\tsamples\n")
		for _, m := range spec.EndToEnd {
			xs := f.series(wl, m.Name, false)
			if len(xs) == 0 {
				continue
			}
			lo, hi := minMax(xs)
			fmt.Fprintf(tw, "  %s\t%.4g\t%.4g-%.4g\t%s\t%.0f%%\t%d\n",
				m.Name, median(xs), lo, hi, m.Unit, m.Bound*100, last.Samples[m.Name])
		}
		if layers {
			for _, m := range spec.PerLayer {
				xs := f.series(wl, m.Name, true)
				if len(xs) == 0 {
					continue
				}
				lo, hi := minMax(xs)
				fmt.Fprintf(tw, "  %s\t%.4g\t%.4g-%.4g\t%s\t\t\n", m.Name, median(xs), lo, hi, m.Unit)
			}
		}
		keys := make([]string, 0, len(last.Info))
		for k := range last.Info {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(tw, "  (%s)\t%.4g\t\t\t\t\n", k, last.Info[k])
		}
	}
	tw.Flush()
}

// driverLine is the contract's last line of output: every end-to-end metric
// of an untraced run, every per-layer metric of a traced one. A per-layer
// metric that does not apply to the workload reads 0.
func (res *result) driverLine(spec *benchSpec, trace bool) map[string]any {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	if trace {
		for _, m := range spec.PerLayer {
			metrics[m.Name] = mv{res.Layers[m.Name], m.Unit}
		}
	} else {
		for _, m := range spec.EndToEnd {
			metrics[m.Name] = mv{res.Metrics[m.Name], m.Unit}
		}
	}
	return map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	}
}

// compareFiles applies every end-to-end metric's bound to the medians of two
// result files, row by row and workload by workload. A row whose own
// run-to-run spread exceeds the bound in either file cannot support a
// verdict and prints unresolved. Any failed request counts as a regression:
// the bound on failures is "no increase".
func compareFiles(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResultFile(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := readResultFile(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return compareResults(spec, a, b, stdout)
}

// spread is the distance between the first and third quartile as a share of
// the median, the quartiles taken as Python's statistics.quantiles(xs, n=4)
// takes them, so -compare judges steadiness the way the driver does.
func spread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	m := median(s)
	if n < 2 || m == 0 {
		return 0
	}
	quartile := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based, exclusive method
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (quartile(3) - quartile(1)) / m
}

func failures(f *resultFile, workload string) (failed, attempted int) {
	for _, r := range f.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return failed, attempted
}

func compareResults(spec *benchSpec, a, b *resultFile, w io.Writer) int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\ta\tb\tchange\tbound\tspread a/b\tverdict\n")
	regressed := false
	for _, wl := range a.workloads() {
		for _, m := range spec.EndToEnd {
			xa, xb := a.series(wl, m.Name, false), b.series(wl, m.Name, false)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			// worse is the share of a's median by which b is worse.
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(xa), spread(xb)
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "REGRESSION"
				regressed = true
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%.1f%%/%.1f%%\t%s\n",
				wl, m.Name, ma, mb, 100*(mb-ma)/ma, 100*m.Bound, 100*sa, 100*sb, verdict)
		}
		fa, na := failures(a, wl)
		fb, nb := failures(b, wl)
		verdict := "ok"
		if nb > 0 && na > 0 && float64(fb)/float64(nb) > float64(fa)/float64(na) {
			verdict = "REGRESSION"
			regressed = true
		}
		fmt.Fprintf(tw, "%s\tfailed_frac\t%d/%d\t%d/%d\t\tno increase\t\t%s\n", wl, fa, na, fb, nb, verdict)
	}
	tw.Flush()
	if regressed {
		return 1
	}
	return 0
}

// Pinned inputs. pins.json records, for the default seed, the digest of the
// events and of the op list of every workload. A run on that seed refuses to
// start when what it generated differs: editing the generator, the pool or a
// size constant cannot silently change the traffic every earlier number was
// measured on. Other seeds have no recorded digest; theirs is in the result
// file for whoever wants to compare two runs.

type pins map[string]map[string]string // workload -> input -> digest

func (r *runner) pinsPath() string { return filepath.Join(r.home, "pins.json") }

func (r *runner) checkPins(workload string, inputs map[string]string) error {
	if r.smoke || r.seed != defaultSeed {
		return nil
	}
	if r.writePins {
		if r.newPins == nil {
			r.newPins = pins{}
		}
		r.newPins[workload] = inputs
		return nil
	}
	raw, err := os.ReadFile(r.pinsPath())
	if err != nil {
		return fmt.Errorf("pinned inputs: %w", err)
	}
	var p pins
	if err := json.Unmarshal(raw, &p); err != nil {
		return fmt.Errorf("pins.json: %w", err)
	}
	for k, got := range inputs {
		if want := p[workload][k]; want != got {
			return fmt.Errorf("pinned inputs: %s %s digest is %s, pins.json records %q: the generated traffic changed; refusing to measure something else under the same name", workload, k, got, want)
		}
	}
	return nil
}

func (r *runner) savePins() error {
	p := pins{}
	if raw, err := os.ReadFile(r.pinsPath()); err == nil {
		if err := json.Unmarshal(raw, &p); err != nil {
			return fmt.Errorf("pins.json: %w", err)
		}
	}
	for wl, in := range r.newPins {
		p[wl] = in
	}
	raw, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(r.pinsPath(), append(raw, '\n'), 0o644)
}
