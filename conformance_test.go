// Cross-scheme conformance matrix: one table-driven suite running every
// routing scheme in internal/scheme (and the distance oracle of
// internal/oracle) against the generator families, asserting for each
// cell the contracts the rest of the repository builds on:
//
//   - universality: routing.Validate — every ordered pair delivers;
//   - realized stretch >= 1 and each scheme's guarantee holds (tables
//     and the structured stretch-1 schemes are exactly 1, landmark <= 3,
//     the k-level oracle within [1, 2k-1]);
//   - backend independence: dense and streaming distance backends
//     produce bit-identical evaluation reports at several
//     worker counts, exhaustive and sampled, all equal to the serial
//     reference — the invariant that lets `-distmode stream` replace the
//     O(n²) table with O(workers·n) rows without changing a single
//     recorded number.
package repro

import (
	"reflect"
	"testing"

	"repro/internal/evaluate"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/oracle"
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

// confFamily is one row block of the matrix.
type confFamily struct {
	name       string
	g          *graph.Graph
	cubeDim    int  // > 0: e-cube applies
	isTree     bool // tree scheme applies with guarantee 1
	isComplete bool // kcomplete schemes apply
}

func confFamilies() []confFamily {
	return []confFamily{
		{name: "random(64,.1)", g: gen.RandomConnected(64, 0.1, xrand.New(41))},
		{name: "tree(63)", g: gen.RandomTree(63, xrand.New(42)), isTree: true},
		{name: "torus 8x8", g: gen.Torus2D(8, 8)},
		{name: "hypercube H6", g: gen.Hypercube(6), cubeDim: 6},
		{name: "K24", g: gen.Complete(24), isComplete: true},
		{name: "outerplanar(60)", g: gen.MaximalOuterplanar(60, xrand.New(43))},
		{name: "petersen", g: gen.Petersen()},
	}
}

// confScheme is one column: a scheme plus its stretch guarantee.
type confScheme struct {
	s routing.Scheme
	// maxStretch is the guaranteed bound; exact schemes use 1 and the
	// suite asserts equality for them (a stretch-1 scheme reporting 0.9
	// would be a distance bug, not a pleasant surprise).
	maxStretch float64
	exact      bool
}

func confSchemes(t *testing.T, f confFamily, apsp *shortest.APSP) []confScheme {
	t.Helper()
	g := f.g
	tb, err := table.New(g, apsp, table.MinPort)
	if err != nil {
		t.Fatalf("%s: tables: %v", f.name, err)
	}
	iv, err := interval.New(g, apsp, interval.Options{Labels: interval.DFSLabels(g), Policy: interval.RunGreedy})
	if err != nil {
		t.Fatalf("%s: interval: %v", f.name, err)
	}
	lm, err := landmark.New(g, apsp, landmark.Options{Seed: 17})
	if err != nil {
		t.Fatalf("%s: landmark: %v", f.name, err)
	}
	out := []confScheme{
		{s: tb, maxStretch: 1, exact: true},
		{s: iv, maxStretch: 1, exact: true},
		{s: lm, maxStretch: 3},
	}
	if f.cubeDim > 0 {
		ec, err := ecube.New(g, f.cubeDim)
		if err != nil {
			t.Fatalf("%s: ecube: %v", f.name, err)
		}
		out = append(out, confScheme{s: ec, maxStretch: 1, exact: true})
	}
	if f.isTree {
		tr, err := tree.New(g, 0)
		if err != nil {
			t.Fatalf("%s: tree: %v", f.name, err)
		}
		out = append(out, confScheme{s: tr, maxStretch: 1, exact: true})
	}
	if f.isComplete {
		fr, err := kcomplete.NewFriendly(g)
		if err != nil {
			t.Fatalf("%s: kcomplete: %v", f.name, err)
		}
		out = append(out, confScheme{s: fr, maxStretch: 1, exact: true})
	}
	return out
}

// confWorkers are the pool sizes the backend-identity assertions sweep.
var confWorkers = []int{1, 2, 5}

// backendOptions enumerates the (backend, workers) grid for one run
// shape (exhaustive or sampled).
func backendOptions(base evaluate.Options) []evaluate.Options {
	var out []evaluate.Options
	for _, mode := range []evaluate.DistMode{evaluate.DistDense, evaluate.DistStream} {
		for _, w := range confWorkers {
			o := base
			o.DistMode = mode
			o.Workers = w
			out = append(out, o)
		}
	}
	return out
}

// TestConformanceMatrix is the matrix itself.
func TestConformanceMatrix(t *testing.T) {
	for _, f := range confFamilies() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			apsp := shortest.NewAPSP(f.g)
			for _, cs := range confSchemes(t, f, apsp) {
				name := cs.s.Name()
				// Universality: every ordered pair must deliver.
				if err := routing.Validate(f.g, cs.s); err != nil {
					t.Fatalf("%s: validate: %v", name, err)
				}
				// Serial reference, dense rows.
				serial, err := routing.MeasureStretch(f.g, cs.s, apsp)
				if err != nil {
					t.Fatalf("%s: serial: %v", name, err)
				}
				if serial.Max < 1 {
					t.Fatalf("%s: stretch %v < 1 — distances broken", name, serial.Max)
				}
				if cs.exact {
					if serial.Max != 1 {
						t.Fatalf("%s: guaranteed stretch-1 scheme measured %v", name, serial.Max)
					}
				} else if serial.Max > cs.maxStretch {
					t.Fatalf("%s: stretch %v exceeds guarantee %v", name, serial.Max, cs.maxStretch)
				}
				// Backend x workers grid: every exhaustive report equals
				// the serial reference and every other cell exactly.
				var ref *evaluate.Report
				for _, o := range backendOptions(evaluate.Options{}) {
					rep, err := evaluate.Stretch(f.g, cs.s, nil, o)
					if err != nil {
						t.Fatalf("%s: %s workers=%d: %v", name, o.DistMode, o.Workers, err)
					}
					if got := rep.StretchReport(); got != serial {
						t.Fatalf("%s: %s workers=%d: report %+v != serial %+v", name, o.DistMode, o.Workers, got, serial)
					}
					if ref == nil {
						ref = rep
					} else if !reflect.DeepEqual(rep, ref) {
						t.Fatalf("%s: %s workers=%d: full report diverges across backends", name, o.DistMode, o.Workers)
					}
				}
				// Sampled grid: same identity on a strict subset of pairs.
				ref = nil
				for _, o := range backendOptions(evaluate.Options{Sample: 300, Seed: 7}) {
					rep, err := evaluate.Stretch(f.g, cs.s, nil, o)
					if err != nil {
						t.Fatalf("%s: sampled %s workers=%d: %v", name, o.DistMode, o.Workers, err)
					}
					if ref == nil {
						ref = rep
					} else if !reflect.DeepEqual(rep, ref) {
						t.Fatalf("%s: sampled %s workers=%d: report diverges across backends", name, o.DistMode, o.Workers)
					}
				}
				if f.g.Order()*(f.g.Order()-1) > 300 && !ref.Sampled {
					t.Fatalf("%s: sampled run did not sample", name)
				}
			}
		})
	}
}

// TestConformanceOracle runs the distance-oracle column of the matrix:
// for every family and k in {2, 3}, every query must lie within
// [d, (2k-1)·d] of the true distance.
func TestConformanceOracle(t *testing.T) {
	for _, f := range confFamilies() {
		apsp := shortest.NewAPSP(f.g)
		n := f.g.Order()
		for _, k := range []int{2, 3} {
			o, err := oracle.New(f.g, apsp, oracle.Options{K: k, Seed: 5})
			if err != nil {
				t.Fatalf("%s: oracle k=%d: %v", f.name, k, err)
			}
			bound := int32(2*k - 1)
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if u == v {
						continue
					}
					d := apsp.Dist(graph.NodeID(u), graph.NodeID(v))
					q := o.Query(graph.NodeID(u), graph.NodeID(v))
					if q < d || q > bound*d {
						t.Fatalf("%s: oracle k=%d: query %d->%d = %d outside [%d, %d]",
							f.name, k, u, v, q, d, bound*d)
					}
				}
			}
		}
	}
}

// TestConformanceStreamedLandmark pins the beyond-RAM construction path
// end to end at matrix scale: a landmark scheme built without the dense
// table must produce evaluation reports bit-identical to the dense-built
// scheme on every backend.
func TestConformanceStreamedLandmark(t *testing.T) {
	for _, f := range confFamilies() {
		apsp := shortest.NewAPSP(f.g)
		dense, err := landmark.New(f.g, apsp, landmark.Options{Seed: 17})
		if err != nil {
			t.Fatalf("%s: dense: %v", f.name, err)
		}
		streamed, err := landmark.NewStreamed(f.g, landmark.Options{Seed: 17}, 3)
		if err != nil {
			t.Fatalf("%s: streamed: %v", f.name, err)
		}
		want, err := evaluate.Stretch(f.g, dense, apsp, evaluate.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		got, err := evaluate.Stretch(f.g, streamed, nil, evaluate.Options{Workers: 2, DistMode: evaluate.DistStream})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: streamed-built landmark diverges from dense-built", f.name)
		}
		if !reflect.DeepEqual(routing.MeasureMemory(f.g, streamed), routing.MeasureMemory(f.g, dense)) {
			t.Fatalf("%s: streamed-built landmark memory diverges", f.name)
		}
	}
}
