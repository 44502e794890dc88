// Command memreq measures the local and global memory requirement of the
// repository's universal routing schemes on a chosen graph family — the
// MEM_local / MEM_global quantities of the paper, under the fixed coding
// strategy of package coding.
//
// Usage:
//
//	memreq -family random -n 200 -scheme tables
//	memreq -family hypercube -n 64 -scheme ecube
//	memreq -family tree -n 150 -scheme interval
//	memreq -family theorem1 -n 512 -eps 0.5 -scheme tables
//	memreq -family random -n 20000 -scheme landmark -distmode stream -sample 200000
//	memreq -family random -n 20000 -scheme landmark -weighted -distmode stream -sample 200000
//
// -distmode selects the distance backend of the evaluation (see
// internal/shortest DistanceSource): dense precomputes the n^2 table,
// stream recomputes rows inside each worker (O(workers*n) distance
// memory — the beyond-RAM mode). Both report bit-identical numbers.
// A hop-metric stream worker scanning rows in order computes them 64 at
// a time (one MS-BFS block), and the resident-rows line reports that
// bound honestly: up to 64 rows per worker.
//
// -weighted switches the measured metric to cost stretch under symmetric
// integer arc costs drawn uniformly from [1, -maxweight] off -seed
// (shortest.RandomWeights, so the assignment is reproducible from the
// flag values alone). Every -distmode applies unchanged: dense builds
// the weighted all-pairs table, stream recomputes rows by per-worker
// Dijkstra under the same residency contract, and both backends report
// bit-identical numbers in this metric too.
//
// The theorem1 family builds the padded graph of constraints of a random
// matrix (the G_n of the paper's main theorem) and additionally prints
// the per-router lower bound next to the measured bits.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/evaluate"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

func main() {
	family := flag.String("family", "random", "graph family: random|tree|torus|hypercube|complete|outerplanar|petersen|theorem1")
	n := flag.Int("n", 128, "graph order (rounded as the family requires)")
	eps := flag.Float64("eps", 0.5, "epsilon for -family theorem1")
	schemeName := flag.String("scheme", "tables", "scheme: tables|interval|landmark|ecube|tree")
	seed := flag.Uint64("seed", 1, "generator seed")
	workers := flag.Int("workers", 0, "worker pool size for all-pairs evaluation (0 = all cores)")
	sample := flag.Int("sample", 0, "measure only this many sampled ordered pairs (0 = exhaustive)")
	sampleSeed := flag.Uint64("sampleseed", 1, "seed for -sample pair selection (independent of -seed)")
	distmode := flag.String("distmode", "dense", "distance backend: dense|stream (stream never materializes the n^2 table)")
	weighted := flag.Bool("weighted", false, "measure cost stretch under random symmetric arc costs instead of hop stretch")
	maxWeight := flag.Int("maxweight", 8, "largest arc cost for -weighted (costs uniform on [1, maxweight], drawn off -seed)")
	flag.Parse()

	mode, err := cliutil.ParseEvalFlags(*workers, *sample, *distmode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "memreq: %v\n", err)
		os.Exit(2)
	}
	if err := cliutil.ValidateWeightFlags(*weighted, *maxWeight); err != nil {
		fmt.Fprintf(os.Stderr, "memreq: %v\n", err)
		os.Exit(2)
	}
	g, ins, err := buildGraph(*family, *n, *eps, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "memreq: %v\n", err)
		os.Exit(2)
	}
	var wts shortest.Weights
	if *weighted {
		wts = shortest.RandomWeights(g, *maxWeight, xrand.New(*seed))
	}
	opt := evaluate.Options{Workers: *workers, Sample: *sample, Seed: *sampleSeed, DistMode: mode}
	// The dense tables are the only O(n^2) objects of this pipeline: build
	// them only in dense mode, where scheme construction and evaluation
	// read them. Stream runs construct the scheme from BFS rows and
	// evaluate against on-demand rows (BFS or Dijkstra, per the metric),
	// so peak distance memory stays at O(workers*n) — weighted runs
	// included.
	var apsp *shortest.APSP
	streaming := mode == evaluate.DistStream
	needHop := !streaming
	if *weighted {
		// Under the weighted metric the evaluation reads the weighted
		// table; the hop table would only serve scheme construction, so
		// skip it for schemes that never read one — otherwise a weighted
		// dense run would resident TWO n² tables while reporting one.
		// The fallback IS the policy here (most schemes build without a
		// hop table); unknown scheme names were already rejected by
		// BuildScheme's loud dispatch before this point.
		//repolint:exhaustive-ok policy subset, not a dispatch — BuildScheme validates names
		switch *schemeName {
		case "landmark", "interval":
		default:
			needHop = false
		}
	}
	if needHop {
		apsp = shortest.NewAPSPParallel(g, opt.Workers)
	}
	// distTable is the dense table of the MEASURED metric (nil when
	// streaming): the hop table built above, or the weighted one — built
	// once here and shared by scheme construction (weighted tables) and
	// evaluation.
	distTable := apsp
	if *weighted {
		distTable = nil
		if !streaming {
			distTable, err = shortest.NewWeightedAPSPParallel(g, wts, opt.Workers)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memreq: %v\n", err)
				os.Exit(2)
			}
		}
	}
	s, _, err := cliutil.BuildScheme(*schemeName, g, cliutil.SchemeConfig{
		APSP: apsp, Weights: wts, WeightedAPSP: distTable,
		Seed: *seed, Streaming: streaming, Workers: opt.Workers,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "memreq: %v\n", err)
		os.Exit(2)
	}
	src, err := opt.SourceFor(g, wts, distTable)
	if err != nil {
		fmt.Fprintf(os.Stderr, "memreq: %v\n", err)
		os.Exit(2)
	}
	opt.Distances = src // evaluate against the same source the report describes

	var rep *evaluate.Report
	if *weighted {
		rep, err = evaluate.WeightedStretch(g, s, wts, distTable, opt)
	} else {
		rep, err = evaluate.Stretch(g, s, distTable, opt)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "memreq: routing failed: %v\n", err)
		os.Exit(1)
	}
	mr := evaluate.Memory(g, s, opt)
	diam := "n/a (no hop table)"
	if apsp != nil {
		diam = fmt.Sprintf("%d", apsp.Diameter())
	}
	fmt.Printf("graph: %s, n=%d, m=%d, diameter=%s\n", *family, g.Order(), g.Size(), diam)
	metric := "hops"
	if *weighted {
		metric = fmt.Sprintf("weighted (costs uniform on [1,%d], seed %d)", *maxWeight, *seed)
	}
	fmt.Printf("metric: %s\n", metric)
	rows := src.ResidentRows(opt.Workers)
	fmt.Printf("distances: %s (<= %d resident rows, ~%.1f MiB)\n",
		mode, rows, float64(rows)*float64(g.Order())*4/(1<<20))
	fmt.Printf("scheme: %s\n", s.Name())
	coverage := "all ordered pairs"
	if rep.Sampled {
		coverage = fmt.Sprintf("%d sampled pairs, seed %d", rep.Pairs, *sampleSeed)
	}
	fmt.Printf("stretch: max=%.3f mean=%.3f (worst pair %d->%d; %s)\n", rep.Max, rep.Mean, rep.WorstU, rep.WorstV, coverage)
	fmt.Printf("hops: max=%d total=%d\n", rep.MaxHops, rep.TotalHops)
	fmt.Printf("stretch histogram:")
	for i, c := range rep.Hist.Buckets {
		if c == 0 {
			continue
		}
		lo, hi := evaluate.BucketBounds(i)
		if hi < 0 {
			fmt.Printf(" [%.2f,inf):%d", lo, c)
		} else {
			fmt.Printf(" [%.2f,%.2f):%d", lo, hi, c)
		}
	}
	fmt.Println()
	fmt.Printf("MEM_local  = %d bits (router %d)\n", mr.LocalBits, mr.ArgMax)
	fmt.Printf("MEM_global = %d bits (mean %.1f bits/router)\n", mr.GlobalBits, mr.MeanBits)

	if ins != nil {
		b := core.LowerBound(ins.Params)
		sum := routing.SumBitsOver(s, ins.CG.A)
		fmt.Printf("\nTheorem 1 instance: p=%d q=%d d=%d\n", ins.Params.P, ins.Params.Q, ins.Params.D)
		fmt.Printf("lower bound: %.0f bits/router over the %d constrained routers\n", b.PerRouter, ins.Params.P)
		fmt.Printf("measured:    %.0f bits/router (constrained routers only)\n", float64(sum)/float64(ins.Params.P))
		fmt.Printf("upper bound: %.0f bits/router (raw table row)\n", b.UpperPerNode)
	}
}

func buildGraph(family string, n int, eps float64, seed uint64) (*graph.Graph, *core.Instance, error) {
	if family == "theorem1" {
		pr, err := core.ChooseParams(n, eps)
		if err != nil {
			return nil, nil, err
		}
		ins, err := core.BuildInstance(pr, seed)
		if err != nil {
			return nil, nil, err
		}
		return ins.CG.G, ins, nil
	}
	g, err := gen.ByName(family, n, xrand.New(seed))
	return g, nil, err
}
