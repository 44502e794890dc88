package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/evaluate"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/scheme/landmark"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// evalSpec is memreq's beyond-RAM evaluation: landmark on random
// n=4096, stream distances, two workers, a fixed seeded sample of
// ordered pairs per pass.
const (
	evalN       = 4096
	evalWorkers = 2
	evalSample  = 150_000
	evalMinPass = 5
)

// evalSystem is eval-stream's set-up result.
type evalSystem struct {
	g   *graph.Graph
	s   *landmark.Scheme
	src shortest.DistanceSource
}

// buildEval generates the graph, builds the landmark scheme from
// streamed rows and resolves the stream backend: everything a memreq
// run does before its first pair.
func buildEval(cfg runConfig, id uint64, tr *tracer) (*evalSystem, error) {
	sys := &evalSystem{}
	opt := evaluate.Options{Workers: evalWorkers, DistMode: evaluate.DistStream}
	stages := []stage{
		{"gen", func() (err error) { sys.g, err = gen.ByName("random", evalN, xrand.New(cfg.seed)); return err }},
		{"landmark.build", func() (err error) {
			sys.s, err = landmark.NewStreamed(sys.g, landmark.Options{Seed: cfg.seed}, evalWorkers)
			return err
		}},
		{"shortest.source", func() (err error) { sys.src, err = opt.Source(sys.g, nil); return err }},
	}
	if err := tr.runStages(id, "setup", stages); err != nil {
		return nil, err
	}
	return sys, nil
}

// sameReport compares two evaluation reports field by field.
func sameReport(a, b *evaluate.Report) bool {
	return a.Pairs == b.Pairs && a.Max == b.Max && a.Mean == b.Mean && a.WorstU == b.WorstU &&
		a.WorstV == b.WorstV && a.MaxHops == b.MaxHops && a.TotalHops == b.TotalHops &&
		a.Sampled == b.Sampled && a.Hist == b.Hist
}

func evalStream(cfg runConfig) (*result, error) {
	res := newResult()
	tr := newTracer(cfg.traced)
	var sys *evalSystem
	var setupTimes []float64
	for rep := 0; rep < setupReps; rep++ {
		sys = nil
		runtime.GC()
		start := time.Now()
		s, err := buildEval(cfg, uint64(rep), tr)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		sys = s
	}
	heap := liveHeapMiB()

	src := sys.src
	var rows *rowMeter
	if tr != nil {
		src, rows = meterRows(sys.src, tr, true)
	}
	opt := evaluate.Options{Workers: evalWorkers, Sample: evalSample, Seed: cfg.seed, Distances: src}
	var passUS []float64
	var reports []*evaluate.Report
	var pairs, meteredPairs int64
	deadline := time.Now().Add(share(cfg, wholeShare))
	for pass := 0; pass < evalMinPass || time.Now().Before(deadline); pass++ {
		if rows != nil {
			// Traced runs alternate: odd passes are metered, even ones
			// are not, and the two medians give the tracing overhead.
			rows.passID.Store(uint64(pass))
			rows.on.Store(pass%2 == 1)
		}
		start := time.Now()
		var rep *evaluate.Report
		err := tr.record(uint64(pass), "evaluate", "", func() (err error) {
			rep, err = evaluate.Stretch(sys.g, sys.s, nil, opt)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", pass, err)
		}
		passUS = append(passUS, durUS(time.Since(start)))
		reports = append(reports, rep)
		pairs += int64(rep.Pairs)
		if pass%2 == 1 {
			meteredPairs += int64(rep.Pairs)
		}
	}
	if rows != nil {
		rows.on.Store(false)
	}

	// Check every pass against the dense backend on the same sample,
	// outside the timed region.
	ref, err := evaluate.Stretch(sys.g, sys.s, shortest.NewAPSP(sys.g), evaluate.Options{Workers: evalWorkers, Sample: evalSample, Seed: cfg.seed})
	if err != nil {
		return nil, fmt.Errorf("dense reference: %w", err)
	}
	res.attempted = pairs
	for _, rep := range reports {
		if !sameReport(rep, ref) {
			res.failed += int64(rep.Pairs)
			res.wrong += int64(rep.Pairs)
		}
	}

	if !cfg.traced {
		total := 0.0
		for _, us := range passUS {
			total += us
		}
		res.set("throughput", float64(pairs)/(total/1e6))
		sorted := sortedCopy(passUS)
		res.set("p50_us", quantile(sorted, 0.5))
		res.set("tail_us", quantile(sorted, 0.90))
		res.set("setup_s", median(setupTimes))
		res.set("heap_mb", heap)
		res.set("info.samples", float64(len(passUS)))
		return res, nil
	}

	res.zeroLayers()
	setupLayers(res, tr)
	calls, computes, busy := rows.totals()
	res.set("shortest.row_calls_per_query", float64(calls)/float64(meteredPairs))
	if computes > 0 {
		res.set("shortest.row_us", durUS(busy)/float64(computes))
	}
	res.set("shortest.resident_rows", float64(sys.src.ResidentRows(evalWorkers)))
	rowSpans := map[uint64][]span{}
	for _, s := range tr.byLayer("shortest") {
		rowSpans[s.ID] = append(rowSpans[s.ID], s)
	}
	var self, plainUS, tracedUS []float64
	for _, p := range tr.byLayer("evaluate") {
		if p.ID%2 == 0 {
			plainUS = append(plainUS, durUS(p.dur()))
			continue
		}
		tracedUS = append(tracedUS, durUS(p.dur()))
		self = append(self, selfTime(p, rowSpans[p.ID]).Seconds())
	}
	res.set("evaluate.self_s", median(self))
	res.set("harness.trace_overhead_pct", 100*(median(tracedUS)-median(plainUS))/median(plainUS))
	var hops float64
	if ref.Pairs > 0 {
		hops = float64(ref.TotalHops) / float64(ref.Pairs)
	}
	res.set("routing.hops_per_query", hops)
	if err := tr.write(filepath.Join(cfg.dir, fmt.Sprintf("spans-eval-stream-seed%d.jsonl", cfg.seed))); err != nil {
		return nil, err
	}
	return res, nil
}
