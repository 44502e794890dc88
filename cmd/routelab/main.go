// Command routelab runs the paper-reproduction experiments and prints
// their tables.
//
// Usage:
//
//	routelab                       # run every experiment E1..E20
//	routelab -list                 # list experiment ids and titles
//	routelab -run E5               # run one experiment
//	routelab -run E2,E3            # run a comma-separated subset
//	routelab -workers 8            # size of the all-pairs worker pool
//	routelab -sample 10000 -seed 1 # sampled (approximate) evaluation
//	routelab -distmode stream      # distance rows by per-worker BFS, no n^2 table
//	routelab -kernel batch         # 64-source MS-BFS rows (hop metric only)
//	routelab -run E18 -e18large    # the large-n backend scaling sweep
//	routelab -run E19              # the weighted (Dijkstra-row) backend sweep
//	routelab -format json -o r.json
//
// All-pairs measurements run on the worker pool of internal/evaluate;
// exhaustive results are bit-identical whatever -workers is. -sample
// evaluates a seeded uniform subset of the ordered pairs instead —
// deterministic for a fixed seed, but approximate, so the recorded
// EXPERIMENTS.md numbers always use exhaustive mode. -distmode swaps the
// distance backend (dense table or streaming BFS rows) under every
// stretch measurement; backends return bit-identical rows, so this flag
// moves memory and time, never the numbers. -kernel picks
// the hop-metric row kernel behind dense and stream backends (scalar
// one-BFS-per-row vs the word-parallel 64-source batch); kernels too
// return bit-identical rows, but note -kernel batch changes the stream
// backend's RESIDENT-ROW accounting (64 rows per reader), so E18's
// recorded rows/distMiB columns are reproduced by the default kernel,
// and experiments with weighted measurements (E17, E19, E20's weighted
// round-trip check) reject -kernel batch explicitly.
//
// All experiments are deterministic; see EXPERIMENTS.md for the recorded
// outputs and their interpretation against the paper.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/evaluate"
	"repro/internal/exp"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	run := flag.String("run", "", "comma-separated experiment ids (default: all)")
	workers := flag.Int("workers", 0, "worker pool size for all-pairs evaluation (0 = all cores)")
	sample := flag.Int("sample", 0, "evaluate only this many sampled ordered pairs per measurement (0 = exhaustive)")
	seed := flag.Uint64("seed", 1, "seed for -sample pair selection")
	distmode := flag.String("distmode", "dense", "distance backend: dense|stream")
	kernel := flag.String("kernel", "auto", "hop-metric row kernel: auto|scalar|batch (batch = 64-source MS-BFS; weighted measurements such as E19 reject it)")
	e18large := flag.Bool("e18large", false, "extend E18 to the large-n ladder (n up to 32768; slow, sampled)")
	format := flag.String("format", "text", "output format: text|json|csv")
	out := flag.String("o", "", "write output to this file instead of stdout")
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	f, err := exp.ParseFormat(*format)
	if err != nil {
		fmt.Fprintf(os.Stderr, "routelab: %v\n", err)
		os.Exit(2)
	}
	mode, err := cliutil.ParseEvalFlags(*workers, *sample, *distmode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "routelab: %v\n", err)
		os.Exit(2)
	}
	kern, err := cliutil.ParseKernelFlag(*kernel, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "routelab: %v\n", err)
		os.Exit(2)
	}
	exp.SetEvalOptions(evaluate.Options{Workers: *workers, Sample: *sample, Seed: *seed, DistMode: mode, Kernel: kern})
	exp.SetScalingLarge(*e18large)

	ids := []string{}
	if *run != "" {
		for _, id := range strings.Split(*run, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	} else {
		for _, e := range exp.All() {
			ids = append(ids, e.ID)
		}
	}

	// Validate every id before creating -o, so a typo cannot truncate a
	// previously recorded results file.
	exps := make([]exp.Experiment, 0, len(ids))
	for _, id := range ids {
		e, ok := exp.Get(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "routelab: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		exps = append(exps, e)
	}
	openOut := func() *os.File {
		if *out == "" {
			return os.Stdout
		}
		file, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "routelab: %v\n", err)
			os.Exit(1)
		}
		return file
	}

	if f == exp.Text {
		// Text streams each experiment as it completes.
		w := openOut()
		defer w.Close()
		for _, e := range exps {
			r, err := e.RunResult()
			if err != nil {
				fmt.Fprintf(os.Stderr, "routelab: %v\n", err)
				os.Exit(1)
			}
			if err := exp.RenderResults(w, []*exp.Result{r}, f); err != nil {
				fmt.Fprintf(os.Stderr, "routelab: rendering failed: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}

	// JSON and CSV emit one well-formed document, so run everything first
	// and only then create -o: a failing experiment leaves an existing
	// recorded file untouched.
	results := make([]*exp.Result, 0, len(exps))
	for _, e := range exps {
		r, err := e.RunResult()
		if err != nil {
			fmt.Fprintf(os.Stderr, "routelab: %v\n", err)
			os.Exit(1)
		}
		results = append(results, r)
	}
	w := openOut()
	defer w.Close()
	if err := exp.RenderResults(w, results, f); err != nil {
		fmt.Fprintf(os.Stderr, "routelab: rendering failed: %v\n", err)
		os.Exit(1)
	}
}
