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
//	routelab -distmode stream      # distance rows recomputed per worker, no n^2 table
//	routelab -run E18 -e18large    # the large-n backend scaling sweep
//	routelab -run E19              # the weighted (Dijkstra-row) backend sweep
//	routelab -format json -o r.json
//
// All-pairs measurements run on the worker pool of internal/evaluate;
// exhaustive results are bit-identical whatever -workers is. -sample
// evaluates a seeded uniform subset of the ordered pairs instead —
// deterministic for a fixed seed, but approximate, so the recorded
// EXPERIMENTS.md numbers always use exhaustive mode. -distmode swaps the
// distance backend (dense table or streamed rows) under every stretch
// measurement; backends return bit-identical rows, so this flag moves
// memory and time, never the numbers. -o writes the output crash-safely
// (temporary file renamed into place), so a failing experiment leaves a
// previously recorded results file untouched.
//
// All experiments are deterministic; see EXPERIMENTS.md for the recorded
// outputs and their interpretation against the paper.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/evaluate"
	"repro/internal/exp"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, runs the chosen experiments
// and returns the exit code (2 for bad flags or ids, 1 for a failed run).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("routelab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list experiments and exit")
	runIDs := fs.String("run", "", "comma-separated experiment ids (default: all)")
	workers := fs.Int("workers", 0, "worker pool size for all-pairs evaluation (0 = all cores)")
	sample := fs.Int("sample", 0, "evaluate only this many sampled ordered pairs per measurement (0 = exhaustive)")
	seed := fs.Uint64("seed", 1, "seed for -sample pair selection")
	distmode := fs.String("distmode", "dense", "distance backend: dense|stream")
	e18large := fs.Bool("e18large", false, "extend E18 to the large-n ladder (n up to 32768; slow, sampled)")
	format := fs.String("format", "text", "output format: text|json|csv")
	out := fs.String("o", "", "write output to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "routelab: %v\n", err)
		return code
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Title)
		}
		return 0
	}

	f, err := exp.ParseFormat(*format)
	if err != nil {
		return fail(2, err)
	}
	mode, err := cliutil.ParseEvalFlags(*workers, *sample, *distmode)
	if err != nil {
		return fail(2, err)
	}
	exp.SetEvalOptions(evaluate.Options{Workers: *workers, Sample: *sample, Seed: *seed, DistMode: mode})
	exp.SetScalingLarge(*e18large)

	ids := []string{}
	if *runIDs != "" {
		for _, id := range strings.Split(*runIDs, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	} else {
		for _, e := range exp.All() {
			ids = append(ids, e.ID)
		}
	}

	// Validate every id before running anything.
	exps := make([]exp.Experiment, 0, len(ids))
	for _, id := range ids {
		e, ok := exp.Get(id)
		if !ok {
			return fail(2, fmt.Errorf("unknown experiment %q (use -list)", id))
		}
		exps = append(exps, e)
	}

	// emit runs the experiments and renders them to w. Text streams each
	// experiment as it completes; JSON and CSV are one document, rendered
	// once every experiment has run. The buffered writer keeps the first
	// write error for Flush, which the text renderer would otherwise drop.
	emit := func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		results := make([]*exp.Result, 0, len(exps))
		for _, e := range exps {
			r, err := e.RunResult()
			if err != nil {
				return err
			}
			results = append(results, r)
			if f == exp.Text || len(results) == len(exps) {
				if err := exp.RenderResults(bw, results, f); err != nil {
					return fmt.Errorf("rendering failed: %w", err)
				}
				if err := bw.Flush(); err != nil {
					return err
				}
				results = results[:0]
			}
		}
		return nil
	}
	if *out == "" {
		err = emit(stdout)
	} else {
		err = cliutil.WriteFileAtomic(*out, emit)
	}
	if err != nil {
		return fail(1, err)
	}
	return 0
}
