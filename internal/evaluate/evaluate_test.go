package evaluate

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/scheme/ecube"
	"repro/internal/scheme/interval"
	"repro/internal/scheme/kcomplete"
	"repro/internal/scheme/landmark"
	"repro/internal/scheme/table"
	"repro/internal/scheme/tree"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// schemesFor builds every applicable scheme of internal/scheme for g.
func schemesFor(t *testing.T, g *graph.Graph, apsp *shortest.APSP, hypercubeDim int, isTree, isComplete bool) []routing.Scheme {
	t.Helper()
	tb, err := table.New(g, apsp, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := interval.New(g, apsp, interval.Options{Labels: interval.DFSLabels(g), Policy: interval.RunGreedy})
	if err != nil {
		t.Fatal(err)
	}
	lm, err := landmark.New(g, apsp, landmark.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	out := []routing.Scheme{tb, iv, lm}
	if hypercubeDim > 0 {
		ec, err := ecube.New(g, hypercubeDim)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ec)
	}
	if isTree {
		tr, err := tree.New(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	if isComplete {
		fr, err := kcomplete.NewFriendly(g)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fr)
	}
	return out
}

// TestAdversarialCompleteBitIdentical covers kcomplete.Adversarial, which
// scrambles its graph's port labeling in place and therefore needs a
// dedicated instance.
func TestAdversarialCompleteBitIdentical(t *testing.T) {
	g := gen.Complete(16)
	ad, err := kcomplete.Scramble(g, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	apsp := shortest.NewAPSP(g)
	want, err := routing.MeasureStretch(g, ad, apsp)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		rep, err := Stretch(g, ad, apsp, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.StretchReport(); got != want {
			t.Fatalf("workers=%d: report %+v, serial %+v", workers, got, want)
		}
	}
}

// TestExhaustiveBitIdenticalToSerial checks the headline determinism
// contract: for every scheme on grid and hypercube workloads, the
// parallel exhaustive report equals routing.MeasureStretch and
// routing.MeasureMemory field for field (including the float Mean), and
// is invariant under the worker count.
func TestExhaustiveBitIdenticalToSerial(t *testing.T) {
	type workload struct {
		name       string
		g          *graph.Graph
		dim        int
		isTree     bool
		isComplete bool
	}
	workloads := []workload{
		{name: "grid 5x5", g: gen.Grid2D(5, 5)},
		{name: "hypercube H4", g: gen.Hypercube(4), dim: 4},
		{name: "tree(40)", g: gen.RandomTree(40, xrand.New(3)), isTree: true},
		{name: "K16", g: gen.Complete(16), isComplete: true},
	}
	for _, w := range workloads {
		apsp := shortest.NewAPSP(w.g)
		for _, s := range schemesFor(t, w.g, apsp, w.dim, w.isTree, w.isComplete) {
			want, err := routing.MeasureStretch(w.g, s, apsp)
			if err != nil {
				t.Fatalf("%s/%s: serial: %v", w.name, s.Name(), err)
			}
			var first *Report
			for _, workers := range []int{1, 2, 7} {
				rep, err := Stretch(w.g, s, apsp, Options{Workers: workers})
				if err != nil {
					t.Fatalf("%s/%s: workers=%d: %v", w.name, s.Name(), workers, err)
				}
				if got := rep.StretchReport(); got != want {
					t.Fatalf("%s/%s: workers=%d: report %+v, serial %+v", w.name, s.Name(), workers, got, want)
				}
				if first == nil {
					first = rep
				} else if !reflect.DeepEqual(rep, first) {
					t.Fatalf("%s/%s: workers=%d: full report differs from workers=1", w.name, s.Name(), workers)
				}
			}
			var histTotal int64
			for _, c := range first.Hist.Buckets {
				histTotal += c
			}
			if histTotal != int64(first.Pairs) {
				t.Fatalf("%s/%s: histogram counts %d pairs, report says %d", w.name, s.Name(), histTotal, first.Pairs)
			}
			wantMem := routing.MeasureMemory(w.g, s)
			gotMem := Memory(w.g, s, Options{Workers: 5})
			if !reflect.DeepEqual(gotMem, wantMem) {
				t.Fatalf("%s/%s: memory report %+v, serial %+v", w.name, s.Name(), gotMem, wantMem)
			}
		}
	}
}

// TestWeightedBitIdenticalToSerial checks the weighted engine against
// routing.MeasureWeightedStretch on a weighted torus.
func TestWeightedBitIdenticalToSerial(t *testing.T) {
	g := gen.Torus2D(5, 5)
	w := shortest.UniformWeights(g)
	r := xrand.New(17)
	for u := 0; u < g.Order(); u++ {
		for i, v := range g.Arcs(graph.NodeID(u)) {
			if p := graph.Port(i + 1); graph.NodeID(u) < v {
				c := int32(r.Intn(5) + 1)
				w[u][p-1] = c
				w[v][g.BackPort(graph.NodeID(u), p)-1] = c
			}
		}
	}
	s, err := table.NewWeighted(g, w, nil, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	want, err := routing.MeasureWeightedStretch(g, s, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		rep, err := WeightedStretch(g, s, w, nil, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.StretchReport(); got != want {
			t.Fatalf("workers=%d: report %+v, serial %+v", workers, got, want)
		}
	}
}

// TestWeightedLargeCosts pins the weighted path against the dense
// denominator index: weighted path costs are NOT bounded by the
// diameter, so huge (valid, symmetric) arc weights must route through
// the accumulator's sparse fallback — same numbers as the serial
// reference, no cost-sized allocations.
func TestWeightedLargeCosts(t *testing.T) {
	g := gen.Torus2D(4, 4)
	w := shortest.UniformWeights(g)
	const big = int32(1) << 24
	r := xrand.New(23)
	for u := 0; u < g.Order(); u++ {
		backs := g.BackPorts(graph.NodeID(u))
		for i, v := range g.Arcs(graph.NodeID(u)) {
			if graph.NodeID(u) < v {
				c := big + int32(r.Intn(1000))
				w[u][i] = c
				w[v][backs[i]-1] = c
			}
		}
	}
	s, err := table.NewWeighted(g, w, nil, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	want, err := routing.MeasureWeightedStretch(g, s, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		rep, err := WeightedStretch(g, s, w, nil, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.StretchReport(); got != want {
			t.Fatalf("workers=%d: report %+v, serial %+v", workers, got, want)
		}
	}
}

// TestWeightedStretchBackendParity pins the tentpole contract at the
// package level: WeightedStretch under stream mode never sees
// the dense weighted table yet reports bit-identically to it.
func TestWeightedStretchBackendParity(t *testing.T) {
	g := gen.Torus2D(5, 5)
	w := shortest.RandomWeights(g, 5, xrand.New(17))
	s, err := table.NewWeighted(g, w, nil, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := WeightedStretch(g, s, w, nil, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		rep, err := WeightedStretch(g, s, w, nil, Options{Workers: workers, DistMode: DistStream})
		if err != nil {
			t.Fatalf("stream workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(rep, dense) {
			t.Fatalf("stream workers=%d: weighted report diverges from dense", workers)
		}
	}
	// Malformed weights surface as an error from backend resolution, in
	// every mode — the replacement for the old silent dense fallback.
	bad := shortest.UniformWeights(g)
	bad[0] = bad[0][:0]
	for _, mode := range []DistMode{DistDense, DistStream} {
		if _, err := WeightedStretch(g, s, bad, nil, Options{DistMode: mode}); err == nil {
			t.Fatalf("%s: malformed weights evaluated without error", mode)
		}
	}
	// Same when the caller supplies the rows itself — explicit Distances
	// or a precomputed dense table skip the resolver's constructors, so
	// WeightedStretch must validate before the cost numerator indexes w
	// inside a worker.
	good, err := shortest.NewWeightedAPSP(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WeightedStretch(g, s, bad, nil, Options{Distances: good}); err == nil {
		t.Fatal("explicit Distances: malformed weights evaluated without error")
	}
	if _, err := WeightedStretch(g, s, bad, good, Options{}); err == nil {
		t.Fatal("caller-supplied dense table: malformed weights evaluated without error")
	}
}

// TestSamplingDeterministic checks that the sampled evaluator is a pure
// function of (n, seed, sample) — independent of workers — and actually
// evaluates the requested number of pairs.
func TestSamplingDeterministic(t *testing.T) {
	g := gen.Grid2D(8, 8)
	apsp := shortest.NewAPSP(g)
	s, err := table.New(g, apsp, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	const sample = 500
	var first *Report
	for _, workers := range []int{1, 3, 8} {
		rep, err := Stretch(g, s, apsp, Options{Workers: workers, Sample: sample, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Sampled {
			t.Fatal("report not marked sampled")
		}
		if rep.Pairs != sample {
			t.Fatalf("sampled %d pairs, want %d", rep.Pairs, sample)
		}
		if first == nil {
			first = rep
		} else if !reflect.DeepEqual(rep, first) {
			t.Fatalf("workers=%d: sampled report differs from workers=1", workers)
		}
	}
	other, err := Stretch(g, s, apsp, Options{Sample: sample, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(other, first) {
		t.Fatal("different seeds produced identical sampled reports")
	}
	// A sample of every pair must agree with the exhaustive run on the
	// exactly-merged statistics.
	full, err := Stretch(g, s, apsp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	all, err := Stretch(g, s, apsp, Options{Sample: g.Order() * (g.Order() - 1), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if all.Pairs != full.Pairs || all.Max != full.Max || all.Mean != full.Mean ||
		all.TotalHops != full.TotalHops || all.Hist != full.Hist {
		t.Fatalf("full-coverage sample %+v disagrees with exhaustive %+v", all, full)
	}
}

// TestSampleBudgetCoversAllPairs checks the fallback that lets one
// harness-wide sample budget span workloads of mixed size: a budget at or
// above n(n-1) runs exhaustively instead of failing on small graphs.
func TestSampleBudgetCoversAllPairs(t *testing.T) {
	g := gen.Path(4)
	s, err := table.New(g, nil, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Stretch(g, s, nil, Options{Sample: 999})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sampled {
		t.Fatal("full-coverage budget still marked sampled")
	}
	if rep.Pairs != 12 {
		t.Fatalf("measured %d pairs, want 12", rep.Pairs)
	}
}

// TestFirstErrorDeterministic checks that the engine reports the error of
// the smallest failing pair in row-major order, whatever the worker
// count.
func TestFirstErrorDeterministic(t *testing.T) {
	n := 20
	f := func(u, v graph.NodeID) (int32, int32, int, error) {
		if u >= 5 && v%3 == 0 {
			return 0, 0, 0, fmt.Errorf("pair %d->%d failed", u, v)
		}
		return 1, 1, 1, nil
	}
	want := "pair 5->0 failed"
	for _, workers := range []int{1, 2, 6} {
		_, err := Pairs(n, f, Options{Workers: workers})
		if err == nil || err.Error() != want {
			t.Fatalf("workers=%d: error %v, want %q", workers, err, want)
		}
	}
}

func TestTrivialOrders(t *testing.T) {
	for n := 0; n <= 1; n++ {
		rep, err := Pairs(n, func(u, v graph.NodeID) (int32, int32, int, error) {
			t.Fatalf("pair func called for n=%d", n)
			return 0, 0, 0, nil
		}, Options{})
		if err != nil || rep.Pairs != 0 {
			t.Fatalf("n=%d: rep=%+v err=%v", n, rep, err)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.add(1.0)  // bucket 0
	h.add(1.24) // bucket 0
	h.add(1.25) // bucket 1
	h.add(3.99) // bucket 11
	h.add(4.0)  // overflow
	h.add(97)   // overflow
	if h.Buckets[0] != 2 || h.Buckets[1] != 1 || h.Buckets[11] != 1 || h.Buckets[12] != 2 {
		t.Fatalf("bucket counts %v", h.Buckets)
	}
	if lo, hi := BucketBounds(0); lo != 1 || hi != 1.25 {
		t.Fatalf("bucket 0 bounds [%v, %v)", lo, hi)
	}
	if lo, hi := BucketBounds(HistBuckets - 1); lo != 4 || hi != -1 {
		t.Fatalf("overflow bucket bounds [%v, %v)", lo, hi)
	}
}

// TestParseDistMode pins the flag spellings the CLIs accept.
func TestParseDistMode(t *testing.T) {
	for s, want := range map[string]DistMode{
		"": DistDense, "dense": DistDense, "stream": DistStream,
	} {
		got, err := ParseDistMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseDistMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, junk := range []string{"turbo", "cache", "auto"} {
		if _, err := ParseDistMode(junk); err == nil {
			t.Fatalf("ParseDistMode accepted %q", junk)
		}
	}
}

// TestOptionsSourcePrecedence pins the backend resolution order:
// explicit Distances beats DistMode beats the apsp argument beats a
// fresh dense build.
func TestOptionsSourcePrecedence(t *testing.T) {
	g := gen.Grid2D(3, 3)
	apsp := shortest.NewAPSP(g)
	explicit := shortest.NewStreamSource(g)
	mustSource := func(src shortest.DistanceSource, err error) shortest.DistanceSource {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	if src := mustSource((Options{Distances: explicit, DistMode: DistDense}).Source(g, apsp)); src != shortest.DistanceSource(explicit) {
		t.Fatal("explicit Distances did not win")
	}
	if _, ok := mustSource((Options{DistMode: DistStream}).Source(g, apsp)).(*shortest.StreamSource); !ok {
		t.Fatal("DistStream did not override the apsp argument")
	}
	if src := mustSource((Options{}).Source(g, apsp)); src != shortest.DistanceSource(apsp) {
		t.Fatal("default mode ignored the provided dense table")
	}
	if src := mustSource((Options{}).Source(g, nil)); src.Order() != g.Order() {
		t.Fatal("default mode with nil apsp did not build a dense table")
	}
	if _, err := (Options{DistMode: DistMode(99)}).Source(g, apsp); err == nil {
		t.Fatal("unknown mode silently resolved a backend instead of erroring")
	}
}

// TestSourceForWeighted pins the weighted resolution: every mode yields a
// Dijkstra-backed source, and an unservable mode is an explicit error —
// never a silent dense fallback.
func TestSourceForWeighted(t *testing.T) {
	g := gen.Grid2D(3, 3)
	w := shortest.UniformWeights(g)
	if src, err := (Options{DistMode: DistStream}).SourceFor(g, w, nil); err != nil {
		t.Fatal(err)
	} else if _, ok := src.(*shortest.StreamSource); !ok {
		t.Fatalf("weighted stream mode resolved %T", src)
	}
	if src, err := (Options{}).SourceFor(g, w, nil); err != nil {
		t.Fatal(err)
	} else if _, ok := src.(*shortest.APSP); !ok {
		t.Fatalf("weighted default mode resolved %T", src)
	}
	if _, err := (Options{DistMode: DistMode(99)}).SourceFor(g, w, nil); err == nil {
		t.Fatal("unknown weighted mode resolved a backend instead of erroring")
	}
	bad := shortest.Weights{{1}} // wrong shape: must surface, not fall back dense
	if _, err := (Options{DistMode: DistStream}).SourceFor(g, bad, nil); err == nil {
		t.Fatal("malformed weights resolved a streaming backend")
	}
}

// TestSourceForRowBatch pins the row batch each resolved stream
// advertises: hop streams compute 64-row MS-BFS blocks on row-major
// scans (so the evaluator claims aligned 64-row chunks and a reader's
// residency bound is the block), weighted streams one Dijkstra row.
func TestSourceForRowBatch(t *testing.T) {
	g := gen.Grid2D(3, 3)
	w := shortest.UniformWeights(g)
	if src, err := (Options{DistMode: DistStream}).SourceFor(g, nil, nil); err != nil {
		t.Fatal(err)
	} else if rb, ok := src.(shortest.RowBatcher); !ok || rb.RowBatch() != shortest.MSBFSWidth {
		t.Fatalf("hop stream source does not advertise the %d-row block (%T)", shortest.MSBFSWidth, src)
	} else if got := src.ResidentRows(4); got != g.Order() {
		t.Fatalf("hop stream ResidentRows(4) = %d, want the one ragged block n=%d", got, g.Order())
	}
	if src, err := (Options{DistMode: DistStream}).SourceFor(g, w, nil); err != nil {
		t.Fatal(err)
	} else if rb, ok := src.(shortest.RowBatcher); !ok || rb.RowBatch() != 1 {
		t.Fatalf("weighted stream source claims %v rows, want 1", src)
	}
}

// TestStretchBatchedStream pins the end-to-end evaluator property on a
// graph bigger than one batch: the stream backend's 64-row blocks give a
// report bit-identical to the serial dense reference at several worker
// counts.
func TestStretchBatchedStream(t *testing.T) {
	g := gen.RandomConnected(150, 0.05, xrand.New(11))
	apsp := shortest.NewAPSP(g)
	s, err := table.New(g, apsp, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Stretch(g, s, apsp, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		rep, err := Stretch(g, s, apsp, Options{Workers: workers, DistMode: DistStream})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if *rep != *ref {
			t.Fatalf("workers=%d: stream report differs from dense serial:\n%+v\nvs\n%+v", workers, rep, ref)
		}
	}
}

// TestStretchStreamDisconnected checks the streaming path reports the
// same deterministic error as dense on a disconnected instance.
func TestStretchStreamDisconnected(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	// Real schemes reject forests at construction, so use a toy function
	// that delivers within each component; the cross-component pairs must
	// then fail on the Unreachable distance, on every backend.
	loop := funcScheme{}
	for _, mode := range []DistMode{DistDense, DistStream} {
		_, errM := Stretch(g, loop, nil, Options{DistMode: mode, Workers: 2})
		if errM == nil {
			t.Fatalf("%v: disconnected pair did not error", mode)
		}
	}
}

// funcScheme delivers only within a component pair (0,1)/(2,3) by port 1.
type funcScheme struct{}

func (funcScheme) Init(src, dst graph.NodeID) routing.Header { return dst }
func (funcScheme) Port(x graph.NodeID, h routing.Header) graph.Port {
	if x == h.(graph.NodeID) {
		return graph.NoPort
	}
	return 1
}
func (funcScheme) Next(x graph.NodeID, h routing.Header) routing.Header { return h }
