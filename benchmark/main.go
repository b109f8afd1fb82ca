// Command benchmark is the repository's one end-to-end benchmark: it builds
// the real seqserver, seqshard and seqrouter binaries, drives four seeded
// workloads against them over HTTP, checks every answer, and reports the
// metrics BENCHMARK.json names. README.md in this directory defines the
// workloads and metrics; this file only parses flags and dispatches.
//
//	go run -C benchmark . -workload hot_read -seed 1 -seconds 10 -trace 0
//	go run -C benchmark .                 # all four workloads, a table
//	go run -C benchmark . -trace 1        # plus the layer ladder and out/trace.json
//	go run -C benchmark . -repeats 3 -out a.json
//	go run -C benchmark . -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// defaultSeed is the seed whose input digests pins.json records.
const defaultSeed = 1

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams passed in, so the smoke test can call it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "run one workload and print the driver's JSON line last (default: all four, as a table)")
		seed      = fs.Int64("seed", defaultSeed, "workload seed: trace start offsets and op draws")
		seconds   = fs.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace     = fs.Int("trace", 0, "1 adds the traced run: counters around the window, the layer ladder, out/trace.json")
		repeats   = fs.Int("repeats", 1, "runs per workload, fresh processes each; the table shows median and min-max")
		out       = fs.String("out", "", "write the result file here (default: out/result.json)")
		compare   = fs.Bool("compare", false, "compare two result files given as arguments; exit 1 on a regression")
		smoke     = fs.Bool("smoke", false, "tiny corpora and one set-up per run: exercises every topology in seconds, measures nothing")
		writePins = fs.Bool("write-pins", false, "record the default seed's input digests in pins.json instead of checking them")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return code
	}
	root, err := findRoot()
	if err != nil {
		return fail(2, err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fail(2, err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(2, errors.New("-compare takes two result files"))
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		return fail(2, fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}

	home := filepath.Join(root, spec.Paths[0])
	outDir := filepath.Join(home, "out")
	binDir := filepath.Join(outDir, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return fail(2, err)
	}
	if err := buildBinaries(root, binDir); err != nil {
		return fail(2, err)
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		return fail(2, err)
	}
	defer os.RemoveAll(tmp)

	// One keep-alive connection per worker that can be in flight.
	tr := &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64, DisableCompression: true}
	defer tr.CloseIdleConnections()
	r := &runner{
		home: home, binDir: binDir, tmp: tmp,
		hc:   &http.Client{Transport: tr, Timeout: 60 * time.Second},
		seed: *seed, seconds: *seconds, smoke: *smoke, trace: *trace != 0,
		writePins: *writePins,
		record:    newRunRecord(root),
	}
	defer r.stopAll()

	names := spec.workloadNames()
	if *workload != "" {
		names = []string{*workload}
	}
	file := resultFile{Record: r.record}
	for _, name := range names {
		for i := 0; i < *repeats; i++ {
			res, err := r.runWorkload(name)
			if err != nil {
				return fail(1, fmt.Errorf("%s: %w", name, err))
			}
			file.Runs = append(file.Runs, res)
			for _, f := range res.Failures {
				fmt.Fprintf(stderr, "benchmark: %s: FAILED: %s\n", name, f)
			}
		}
	}
	if r.writePins {
		if err := r.savePins(); err != nil {
			return fail(1, err)
		}
	}
	if r.trace {
		if err := r.spans.write(filepath.Join(outDir, "trace.json")); err != nil {
			return fail(1, err)
		}
	}
	path := *out
	if path == "" {
		path = filepath.Join(outDir, "result.json")
	}
	if err := file.write(path); err != nil {
		return fail(1, err)
	}

	if *workload == "" {
		file.table(spec, r.trace, stdout)
		if !file.allCorrect() {
			return 1
		}
		return 0
	}
	// Driver mode: the table goes to stderr, the contract's line goes last
	// on stdout.
	file.table(spec, r.trace, stderr)
	res := file.Runs[len(file.Runs)-1]
	line, err := json.Marshal(res.driverLine(spec, r.trace))
	if err != nil {
		return fail(1, err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runWorkload dispatches one run by workload name.
func (r *runner) runWorkload(name string) (*result, error) {
	var (
		res *result
		err error
	)
	switch name {
	case "hot_read":
		res, err = r.runRead(name, hotRead)
	case "cold_read":
		res, err = r.runRead(name, coldRead)
	case "ingest_batch":
		res, err = r.runIngest(name, ingestBatch)
	case "fleet_mixed":
		res, err = r.runFleet(name, fleetMixed)
	default:
		return nil, fmt.Errorf("unknown workload")
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}
