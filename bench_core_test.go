// Core-kernel micro-benchmarks: the hot loops every paper quantity
// funnels through — BFS arc relaxation, all-pairs table construction,
// route simulation, and the streaming evaluator that composes all three.
// CI archives these as BENCH_core.json (see DESIGN.md "Bench
// trajectory") next to the evaluator suite, so the core perf trajectory
// accumulates one data point per run:
//
//	go test -run '^$' -bench 'BenchmarkBFS|BenchmarkMSBFS|BenchmarkAPSP|BenchmarkRouteVisit|BenchmarkEvaluateStreaming4096' \
//	    -benchtime 1x . | go run ./cmd/benchjson > BENCH_core.json
//
// The graphs are seeded random connected graphs with mean degree 8, the
// same family the evaluator scaling experiment (E18) sweeps, at the
// n >= 4096 orders where arc iteration dominates end-to-end time.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/evaluate"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/scheme/table"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// BenchmarkBFS measures one single-source traversal with caller-owned
// scratch — the per-row cost of the streaming distance backends.
func BenchmarkBFS(b *testing.B) {
	for _, n := range []int{2048, 4096} {
		g := benchGraph(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var dist []int32
			var queue []graph.NodeID
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dist, queue = shortest.BFSInto(g, graph.NodeID(i%n), dist, queue)
			}
			_ = dist
		})
	}
}

// BenchmarkBFSTree measures the parent-port tree build used by scheme
// constructors (one tree per root).
func BenchmarkBFSTree(b *testing.B) {
	g := benchGraph(4096)
	b.Run("n=4096", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			shortest.BFSTree(g, graph.NodeID(i%4096))
		}
	})
}

// BenchmarkMSBFS measures one full 64-source MS-BFS batch with
// caller-owned scratch — the per-block cost of the batched distance
// backends. Divide by 64 to compare against BenchmarkBFS's per-row
// cost: the batch shares one arc scan across all resident lanes.
func BenchmarkMSBFS(b *testing.B) {
	for _, n := range []int{2048, 4096} {
		g := benchGraph(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			srcs := make([]graph.NodeID, shortest.MSBFSWidth)
			var dist []int32
			var scr *shortest.MSBFSScratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := (i * shortest.MSBFSWidth) % n
				for j := range srcs {
					srcs[j] = graph.NodeID((start + j) % n)
				}
				dist, scr = shortest.MSBFSInto(g, srcs, dist, scr)
			}
			_ = dist
		})
	}
}

// BenchmarkAPSP measures all-pairs table construction, serial (one BFS
// per row) and worker-pool (64-source MS-BFS claims), at the orders
// where Theorem 1 sweeps and the E18 ladder spend their preprocessing
// time; the pair is the BFS-vs-MS-BFS build comparison.
func BenchmarkAPSP(b *testing.B) {
	for _, n := range []int{512, 4096} {
		g := benchGraph(n)
		b.Run(fmt.Sprintf("serial/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				shortest.NewAPSP(g)
			}
		})
		b.Run(fmt.Sprintf("parallel/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				shortest.NewAPSPParallel(g, 0)
			}
		})
	}
}

// BenchmarkRouteVisit measures the allocation-free route simulator on
// shortest-path tables over a fixed pre-drawn pair set — the inner loop
// the all-pairs evaluator runs n(n-1) times.
func BenchmarkRouteVisit(b *testing.B) {
	const n = 4096
	g := benchGraph(n)
	s, err := table.New(g, shortest.NewAPSPParallel(g, 0), table.MinPort)
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(3)
	pairs := make([][2]graph.NodeID, 4096)
	for i := range pairs {
		u := graph.NodeID(r.Intn(n))
		v := graph.NodeID(r.Intn(n - 1))
		if v >= u {
			v++
		}
		pairs[i] = [2]graph.NodeID{u, v}
	}
	b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
		b.ReportAllocs()
		var hops int
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			l := -1
			if err := routing.RouteVisit(g, s, p[0], p[1], 0, func(routing.Hop) { l++ }); err != nil {
				b.Fatal(err)
			}
			hops += l
		}
		_ = hops
	})
}

// BenchmarkEvaluateStreaming4096 measures the streaming all-pairs
// evaluator at n = 4096 — per-worker BFS row recomputation feeding
// millions of route simulations, the workload of the E18 ladder. The
// sampled sub-benchmark claims every source row (1M pairs spread over
// 4096 rows) so the BFS recomputation cost stays fully represented while
// the wall time stays CI-friendly; the exhaustive sub-benchmark routes
// all n(n-1) pairs.
func BenchmarkEvaluateStreaming4096(b *testing.B) {
	const n = 4096
	g := benchGraph(n)
	s, err := table.New(g, shortest.NewAPSPParallel(g, 0), table.MinPort)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		sample int
	}{
		{"sampled1M", 1 << 20},
		{"exhaustive", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			opt := evaluate.Options{DistMode: evaluate.DistStream, Sample: bc.sample, Seed: 1}
			for i := 0; i < b.N; i++ {
				rep, err := evaluate.Stretch(g, s, nil, opt)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Pairs == 0 {
					b.Fatal("no pairs measured")
				}
			}
		})
	}
}
