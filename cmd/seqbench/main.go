// Command seqbench regenerates the tables and figures of the paper's
// evaluation (§5). By default it runs every experiment at a small scale;
// -scale 1.0 regenerates the published dataset sizes (slow on small
// machines).
//
// Usage:
//
//	seqbench [-scale 0.05] [-workers 0] [-repeats 1] [-qrepeats 5]
//	         [-datasets bpi_2013,max_100] [-exp table5,figure3]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"seqlog/internal/bench"
)

func main() {
	var (
		scale    = flag.Float64("scale", 0.05, "dataset scale; 1.0 = the paper's published sizes")
		workers  = flag.Int("workers", 0, "workers for parallel columns (0 = all cores)")
		repeats  = flag.Int("repeats", 1, "repetitions per index build measurement")
		qrepeats = flag.Int("qrepeats", 5, "repetitions per query measurement (paper: 5)")
		datasets = flag.String("datasets", "", "comma-separated catalog subset (default: all)")
		exps     = flag.String("exp", "", "comma-separated experiments (default: all of "+strings.Join(bench.Experiments(), ",")+")")
		list     = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, name := range bench.Experiments() {
			fmt.Println(name)
		}
		return
	}

	cfg := bench.Config{
		Scale:        *scale,
		Workers:      *workers,
		BuildRepeats: *repeats,
		QueryRepeats: *qrepeats,
		Out:          os.Stdout,
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}

	fmt.Printf("seqbench: scale=%.3f workers=%d GOMAXPROCS=%d started %s\n",
		*scale, *workers, runtime.GOMAXPROCS(0), time.Now().Format(time.RFC3339))

	r := bench.NewRunner(cfg)
	var err error
	if *exps == "" {
		err = r.RunAll()
	} else {
		for _, name := range strings.Split(*exps, ",") {
			if err = r.Run(strings.TrimSpace(name)); err != nil {
				break
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "seqbench:", err)
		os.Exit(1)
	}
}
