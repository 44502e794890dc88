package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// record is one line of a run set: a run's result line with the
// workload and seed that produced it (written by --record).
type record struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Correct  bool              `json:"correct"`
	Metrics  map[string]metric `json:"metrics"`
}

// benchDef is the part of BENCHMARK.json compare reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(data, n=4) does (its default "exclusive"
// method), so spreads read the same here as anywhere else.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := sortedCopy(xs)
	ld := len(d)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// verdict applies the claim rules of the choosing-metrics guide (§8) to
// one workload x metric. base and head are paired by seed (pairs) or
// compared as sets. better is "lower" or "higher"; bound is the share
// of the base median by which the metric may worsen.
//
//   - regressed: head's median is worse than base's by more than bound;
//   - improved: head wins at least nine tenths of the pairs (ties count
//     for neither side) and the medians differ, in head's favour, by
//     more than base's own interquartile range;
//   - unresolved: base's interquartile range is wider than bound times
//     its median, unless every head run beats every base run (improved);
//   - unchanged: otherwise.
func verdict(base, head []float64, pairs [][2]float64, better string, bound float64) (string, float64) {
	sign := 1.0 // positive means head is better
	if better == "lower" {
		sign = -1
	}
	bq1, bmed, bq3 := quartiles(base)
	_, hmed, _ := quartiles(head)
	wins := 0
	for _, p := range pairs {
		if d := sign * (p[1] - p[0]); d > 0 {
			wins++
		}
	}
	winFrac := 0.0
	if len(pairs) > 0 {
		winFrac = float64(wins) / float64(len(pairs))
	}
	gain := sign * (hmed - bmed)
	switch {
	case gain < -bound*math.Abs(bmed):
		return "regressed", winFrac
	case len(pairs) > 0 && winFrac >= 0.9 && gain > bq3-bq1:
		return "improved", winFrac
	case bq3-bq1 > bound*math.Abs(bmed):
		if allBetter(base, head, sign) {
			return "improved", winFrac
		}
		return "unresolved", winFrac
	default:
		return "unchanged", winFrac
	}
}

func allBetter(base, head []float64, sign float64) bool {
	for _, h := range head {
		for _, b := range base {
			if sign*(h-b) <= 0 {
				return false
			}
		}
	}
	return len(base) > 0 && len(head) > 0
}

func readRunSet(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if r.Workload == "" {
			return nil, fmt.Errorf("%s:%d: no workload", path, n)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// runCompare prints, per workload and end-to-end metric, each run set's
// median and quartiles; given two run sets (parent first), also the
// fraction of seed-paired runs the second won and a verdict. It exits 1
// when any metric regressed or any run was incorrect.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metrics' direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-bench BENCHMARK.json] base.jsonl [head.jsonl]")
		return 2
	}
	blob, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 2
	}
	var def benchDef
	if err := json.Unmarshal(blob, &def); err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %s: %v\n", *benchPath, err)
		return 2
	}
	var sets [][]record
	for _, p := range fs.Args() {
		rs, err := readRunSet(p)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
			return 2
		}
		sets = append(sets, rs)
	}
	bad := compareSets(stdout, def, sets)
	if bad {
		return 1
	}
	return 0
}

// compareSets writes the comparison table and reports whether anything
// regressed or any run was incorrect.
func compareSets(w io.Writer, def benchDef, sets [][]record) bool {
	bad := false
	workloads := map[string]bool{}
	for _, set := range sets {
		for _, r := range set {
			workloads[r.Workload] = true
			if !r.Correct {
				fmt.Fprintf(w, "incorrect run: %s seed %d\n", r.Workload, r.Seed)
				bad = true
			}
		}
	}
	names := make([]string, 0, len(workloads))
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	if len(sets) == 1 {
		fmt.Fprintf(w, "%-12s %-12s %5s %14s %14s %14s %9s %7s\n", "workload", "metric", "runs", "q1", "median", "q3", "iqr/med", "bound")
	} else {
		fmt.Fprintf(w, "%-12s %-12s %5s %-34s %-34s %8s %5s %s\n", "workload", "metric", "pairs", "base q1 / median / q3", "head q1 / median / q3", "change", "won", "verdict")
	}
	for _, wl := range names {
		for _, m := range def.EndToEnd {
			vals := make([][]float64, len(sets))
			bySeed := make([]map[uint64]float64, len(sets))
			for i, set := range sets {
				bySeed[i] = map[uint64]float64{}
				for _, r := range set {
					if v, ok := r.Metrics[m.Name]; ok && r.Workload == wl {
						vals[i] = append(vals[i], v.Value)
						bySeed[i][r.Seed] = v.Value
					}
				}
			}
			if len(sets) == 1 {
				q1, med, q3 := quartiles(vals[0])
				spread := 0.0
				if med != 0 {
					spread = (q3 - q1) / math.Abs(med)
				}
				flag := ""
				if spread > m.Bound {
					flag = "  wider than bound"
				}
				fmt.Fprintf(w, "%-12s %-12s %5d %14.6g %14.6g %14.6g %9.4f %7.2f%s\n", wl, m.Name, len(vals[0]), q1, med, q3, spread, m.Bound, flag)
				continue
			}
			var pairs [][2]float64
			for seed, b := range bySeed[0] {
				if h, ok := bySeed[1][seed]; ok {
					pairs = append(pairs, [2]float64{b, h})
				}
			}
			v, won := verdict(vals[0], vals[1], pairs, m.Better, m.Bound)
			if v == "regressed" {
				bad = true
			}
			_, bmed, _ := quartiles(vals[0])
			_, hmed, _ := quartiles(vals[1])
			change := 0.0
			if bmed != 0 {
				change = 100 * (hmed - bmed) / math.Abs(bmed)
			}
			fmt.Fprintf(w, "%-12s %-12s %5d %-34s %-34s %+7.2f%% %5.2f %s\n",
				wl, m.Name, len(pairs), fmtQuartiles(vals[0]), fmtQuartiles(vals[1]), change, won, v)
		}
	}
	return bad
}

func fmtQuartiles(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g / %.5g / %.5g", q1, med, q3)
}
