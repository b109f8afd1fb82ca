package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestSmoke runs every workload's topology end to end on tiny inputs, traced,
// and checks the benchmark's own contract: the names it emits are exactly the
// names BENCHMARK.json defines, every one has a unit, nothing fails, and
// neither a child process nor a temporary directory is left behind.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-seconds", "0.5", "-trace", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	outDir := filepath.Join(root, spec.Paths[0], "out")
	file, err := readResultFile(filepath.Join(outDir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}

	if got, want := file.workloads(), spec.workloadNames(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("workloads run %v, BENCHMARK.json names %v", got, want)
	}
	layerSeen := map[string]bool{}
	for _, res := range file.Runs {
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", res.Workload, res.Correct, res.Attempted, res.Failed, res.Failures)
		}
		if got, want := keys(res.Metrics), names(spec.EndToEnd); got != want {
			t.Errorf("%s: end-to-end metrics emitted\n  %s\nBENCHMARK.json names\n  %s", res.Workload, got, want)
		}
		for name, v := range res.Metrics {
			if v <= 0 {
				t.Errorf("%s: %s = %v; an end-to-end metric is never 0", res.Workload, name, v)
			}
		}
		for name := range res.Layers {
			layerSeen[name] = true
		}
		// The driver's line must carry every metric of its kind, with units.
		for _, trace := range []bool{false, true} {
			raw, err := json.Marshal(res.driverLine(spec, trace))
			if err != nil {
				t.Fatal(err)
			}
			var line struct {
				Metrics map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(raw, &line); err != nil {
				t.Fatal(err)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: line has %d metrics, want %d", res.Workload, trace, len(line.Metrics), len(want))
			}
			for _, m := range want {
				if got := line.Metrics[m.Name]; got.Value == nil || got.Unit == "" || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s missing or without its unit", res.Workload, trace, m.Name)
				}
			}
		}
	}
	// Every per-layer name is measured by at least one workload, and no
	// workload measures a name BENCHMARK.json does not define.
	if got, want := keys(layerSeen), names(spec.PerLayer); got != want {
		t.Errorf("per-layer metrics emitted\n  %s\nBENCHMARK.json names\n  %s", got, want)
	}

	raw, err := os.ReadFile(filepath.Join(outDir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil || len(spans) == 0 {
		t.Errorf("trace.json: %d spans, err %v", len(spans), err)
	}

	if len(file.Record.Processes) == 0 {
		t.Error("run record lists no spawned process")
	}
	for _, p := range file.Record.Processes {
		if _, err := os.Stat(fmt.Sprintf("/proc/%d", p.Pid)); err == nil {
			t.Errorf("%s (pid %d) survived the run", p.Name, p.Pid)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(outDir, "tmp-*")); len(left) != 0 {
		t.Errorf("temporary directories survived the run: %v", left)
	}
}

func keys[V any](m map[string]V) string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return strings.Join(ks, " ")
}

func names(ms []metricSpec) string {
	var ns []string
	for _, m := range ms {
		ns = append(ns, m.Name)
	}
	sort.Strings(ns)
	return strings.Join(ns, " ")
}

// TestCompare pins the three verdicts of -compare.
func TestCompare(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{
		{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
	}}
	file := func(p50, ops []float64, failed int) *resultFile {
		f := &resultFile{}
		for i := range p50 {
			f.Runs = append(f.Runs, &result{Workload: "w", Attempted: 100, Failed: failed,
				Metrics: map[string]float64{"op_p50_ms": p50[i], "ops_per_s": ops[i]}})
		}
		return f
	}
	base := file([]float64{1, 1.01, 0.99}, []float64{100, 101, 99}, 0)
	for _, tc := range []struct {
		name string
		b    *resultFile
		code int
		want string
	}{
		{"same", file([]float64{1.02, 1, 1.01}, []float64{99, 100, 98}, 0), 0, "ok"},
		{"slower", file([]float64{1.2, 1.21, 1.19}, []float64{100, 101, 99}, 0), 1, "REGRESSION"},
		{"less throughput", file([]float64{1, 1.01, 0.99}, []float64{80, 81, 79}, 0), 1, "REGRESSION"},
		{"noisy", file([]float64{0.9, 1, 1.1}, []float64{100, 101, 99}, 0), 0, "unresolved"},
		{"failures", file([]float64{1, 1.01, 0.99}, []float64{100, 101, 99}, 1), 1, "REGRESSION"},
	} {
		var out bytes.Buffer
		if code := compareResults(spec, base, tc.b, &out); code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit %d, want %d with %q in\n%s", tc.name, code, tc.code, tc.want, out.String())
		}
	}
}
