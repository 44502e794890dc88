// Weighted rows of the conformance matrix: the same backend-identity and
// serial/parallel contracts conformance_test.go pins for the hop metric,
// asserted under non-uniform arc costs — the invariant that lets a
// weighted `-distmode stream` run replace the dense weighted table with
// O(workers·n) Dijkstra rows without changing a single recorded number:
//
//   - weighted dense and streaming backends produce bit-identical
//     evaluation reports at several worker counts, exhaustive and
//     sampled, all equal to the serial routing.MeasureWeightedStretch;
//   - the parallel weighted all-pairs table is bit-identical to the
//     serial one at any worker count;
//   - under UniformWeights the weighted report collapses to the
//     unweighted report of the same scheme on the same graph (cost IS
//     hop count when every arc costs one).
package repro

import (
	"reflect"
	"testing"

	"repro/internal/evaluate"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/scheme/landmark"
	"repro/internal/scheme/table"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// weightedConfSchemes builds the weighted columns of the matrix: the
// minimum-cost tables (guaranteed cost stretch 1 — asserted exactly) and
// the landmark scheme, which routes by hops and is simply measured under
// the weighted metric.
func weightedConfSchemes(t *testing.T, f confFamily, w shortest.Weights, apsp *shortest.APSP) []confScheme {
	t.Helper()
	tb, err := table.NewWeighted(f.g, w, nil, table.MinPort)
	if err != nil {
		t.Fatalf("%s: weighted tables: %v", f.name, err)
	}
	lm, err := landmark.New(f.g, apsp, landmark.Options{Seed: 17})
	if err != nil {
		t.Fatalf("%s: landmark: %v", f.name, err)
	}
	return []confScheme{
		{s: tb, maxStretch: 1, exact: true},
		{s: lm}, // hop guarantee only; weighted stretch recorded as measured
	}
}

// TestWeightedConformanceMatrix asserts dense == stream == serial for the weighted metric across the worker grid, exhaustive and
// sampled, on every family.
func TestWeightedConformanceMatrix(t *testing.T) {
	for _, f := range confFamilies() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			w := shortest.RandomWeights(f.g, 9, xrand.New(91))
			wapsp, err := shortest.NewWeightedAPSP(f.g, w)
			if err != nil {
				t.Fatal(err)
			}
			apsp := shortest.NewAPSP(f.g)
			for _, cs := range weightedConfSchemes(t, f, w, apsp) {
				name := cs.s.Name()
				serial, err := routing.MeasureWeightedStretch(f.g, cs.s, w, wapsp)
				if err != nil {
					t.Fatalf("%s: serial: %v", name, err)
				}
				if serial.Max < 1 {
					t.Fatalf("%s: weighted stretch %v < 1 — distances broken", name, serial.Max)
				}
				if cs.exact && serial.Max != 1 {
					t.Fatalf("%s: guaranteed cost-stretch-1 scheme measured %v", name, serial.Max)
				}
				var ref *evaluate.Report
				for _, o := range backendOptions(evaluate.Options{}) {
					rep, err := evaluate.WeightedStretch(f.g, cs.s, w, nil, o)
					if err != nil {
						t.Fatalf("%s: %s workers=%d: %v", name, o.DistMode, o.Workers, err)
					}
					if got := rep.StretchReport(); got != serial {
						t.Fatalf("%s: %s workers=%d: report %+v != serial %+v", name, o.DistMode, o.Workers, got, serial)
					}
					if ref == nil {
						ref = rep
					} else if !reflect.DeepEqual(rep, ref) {
						t.Fatalf("%s: %s workers=%d: full report diverges across weighted backends", name, o.DistMode, o.Workers)
					}
				}
				ref = nil
				for _, o := range backendOptions(evaluate.Options{Sample: 300, Seed: 7}) {
					rep, err := evaluate.WeightedStretch(f.g, cs.s, w, nil, o)
					if err != nil {
						t.Fatalf("%s: sampled %s workers=%d: %v", name, o.DistMode, o.Workers, err)
					}
					if ref == nil {
						ref = rep
					} else if !reflect.DeepEqual(rep, ref) {
						t.Fatalf("%s: sampled %s workers=%d: report diverges across weighted backends", name, o.DistMode, o.Workers)
					}
				}
				if f.g.Order()*(f.g.Order()-1) > 300 && !ref.Sampled {
					t.Fatalf("%s: sampled weighted run did not sample", name)
				}
			}
		})
	}
}

// TestWeightedAPSPParallelMatchesSerial pins NewWeightedAPSPParallel ==
// NewWeightedAPSP at several worker counts on every family.
func TestWeightedAPSPParallelMatchesSerial(t *testing.T) {
	for _, f := range confFamilies() {
		w := shortest.RandomWeights(f.g, 9, xrand.New(92))
		serial, err := shortest.NewWeightedAPSP(f.g, w)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		n := f.g.Order()
		for _, workers := range []int{0, 1, 4, 13} {
			par, err := shortest.NewWeightedAPSPParallel(f.g, w, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", f.name, workers, err)
			}
			for u := 0; u < n; u++ {
				if !reflect.DeepEqual(par.Row(graph.NodeID(u)), serial.Row(graph.NodeID(u))) {
					t.Fatalf("%s workers=%d: row %d diverges from serial", f.name, workers, u)
				}
			}
		}
	}
}

// TestUniformWeightsReportEqualsUnweighted pins the metric collapse: on
// all-ones weights the weighted report of a scheme is bit-identical to
// its unweighted report, for every backend.
func TestUniformWeightsReportEqualsUnweighted(t *testing.T) {
	for _, f := range confFamilies() {
		apsp := shortest.NewAPSP(f.g)
		lm, err := landmark.New(f.g, apsp, landmark.Options{Seed: 17})
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		w := shortest.UniformWeights(f.g)
		for _, mode := range []evaluate.DistMode{evaluate.DistDense, evaluate.DistStream} {
			opt := evaluate.Options{Workers: 2, DistMode: mode}
			hop, err := evaluate.Stretch(f.g, lm, nil, opt)
			if err != nil {
				t.Fatalf("%s %s: %v", f.name, mode, err)
			}
			wtd, err := evaluate.WeightedStretch(f.g, lm, w, nil, opt)
			if err != nil {
				t.Fatalf("%s %s: %v", f.name, mode, err)
			}
			if !reflect.DeepEqual(wtd, hop) {
				t.Fatalf("%s %s: uniform-weight report %+v != unweighted %+v", f.name, mode, wtd, hop)
			}
		}
	}
}
