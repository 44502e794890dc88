// Command perfbench is the repository's benchmark: one process that
// builds a workload from a seed, serves or evaluates it, checks every
// answer, and prints every end-to-end metric (or, with --trace 1, every
// per-layer metric) as one JSON object on the last line of stdout.
//
//	perfbench --workload serve-wire --seed 1 --seconds 10 --trace 0
//	perfbench compare base.jsonl head.jsonl
//	perfbench churn-knee --seed 1 --seconds 25
//
// Layers are timed from outside: the benchmark wraps the public entry
// points of each package (serve.New's distance source, the netserve
// handler, the schemeio and faults calls) and never traces inside the
// program. See README.md for the workloads, the metrics and the rules
// for making a claim against them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "churn-knee" {
		os.Exit(runChurnKnee(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), "|"))
	seed := fs.Uint64("seed", 1, "workload seed: graph, fault plan and query stream all derive from it")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	recordPath := fs.String("record", "", "also append the result, with workload and seed, to this run-set file (input of compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), "|"))
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(stderr, "perfbench: need --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1, dir: workDir()}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res, err := w(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res.report(stderr, *name, cfg.traced)
	lineOut, err := res.line(cfg.traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if *recordPath != "" {
		if err := appendRecord(*recordPath, record{Workload: *name, Seed: *seed, Correct: lineOut.Correct, Metrics: lineOut.Metrics}); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	blob, err := json.Marshal(lineOut)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", blob)
	if res.wrong > 0 {
		return 1
	}
	return 0
}

// workDir is where runs keep scratch files (the container file) and
// span dumps: under the build directory the launcher exports, inside
// the checkout.
func workDir() string {
	if d := os.Getenv("PERFBENCH_OUT"); d != "" {
		return filepath.Join(d, "work")
	}
	return filepath.Join(".bench_build", "work")
}

type runConfig struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	dir     string
}

// result is what one run measured. attempted/failed count queries (or
// evaluated pairs); wrong counts answers that disagreed with the serial
// reference and is included in failed.
type result struct {
	attempted, failed, wrong int64
	metrics                  map[string]float64
	flags                    []string // harness warnings printed with the report
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.metrics[name] = v }

// line is the machine-readable result: the last line of stdout.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line builds the result line: the end-to-end metrics of an untraced
// run or the per-layer metrics of a traced one.
func (r *result) line(traced bool) (line, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := line{Correct: r.wrong == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if out.Attempted < 1 {
		return out, fmt.Errorf("run attempted no work")
	}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

func appendRecord(path string, rec record) error {
	blob, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, "%s\n", blob); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints the human-readable table to stderr: every metric of the
// run with its unit, the error accounting and any harness flags.
func (r *result) report(w io.Writer, name string, traced bool) {
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench %s (%s): attempted=%d failed=%d wrong_answers=%d error_rate=%.6g\n",
		name, mode, r.attempted, r.failed, r.wrong, r.errorRate())
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", k, r.metrics[k], unitOf(k))
	}
	for _, f := range r.flags {
		fmt.Fprintf(w, "  FLAG: %s\n", f)
	}
}

func (r *result) errorRate() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}
