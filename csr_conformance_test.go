// Property tests for the CSR graph core against every conformance
// family: the flat Arcs/BackPorts accessors and the port-indexed
// Neighbor/BackPort lookups must agree arc-for-arc — same order, same
// ports — before a Freeze, after it, and after post-freeze mutation. This pins the tentpole invariant the whole stack leans on:
// freezing moves where the rows live, never what they say.
package repro

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/evaluate"
	"repro/internal/graph"
	"repro/internal/scheme/table"
	"repro/internal/shortest"
)

// arcSnapshot records a copy of one vertex's arcs, so later checks
// compare against the arcs as they were when the snapshot was taken.
type arcSnapshot struct {
	neighbors []graph.NodeID
	backs     []graph.Port
}

func snapshotArcs(g *graph.Graph) []arcSnapshot {
	snap := make([]arcSnapshot, g.Order())
	for u := 0; u < g.Order(); u++ {
		ui := graph.NodeID(u)
		s := &snap[u]
		for i, v := range g.Arcs(ui) {
			s.neighbors = append(s.neighbors, v)
			s.backs = append(s.backs, g.BackPort(ui, graph.Port(i+1)))
		}
	}
	return snap
}

// checkAccessorsAgree asserts Arcs/BackPorts match an arc snapshot
// arc-for-arc, and that Neighbor/BackPort agree with both.
func checkAccessorsAgree(t *testing.T, name string, g *graph.Graph, snap []arcSnapshot) {
	t.Helper()
	for u := 0; u < g.Order(); u++ {
		ui := graph.NodeID(u)
		arcs := g.Arcs(ui)
		backs := g.BackPorts(ui)
		s := snap[u]
		if len(arcs) != len(s.neighbors) || len(backs) != len(s.backs) || len(arcs) != g.Degree(ui) {
			t.Fatalf("%s: vertex %d: slice lengths %d/%d vs snapshot %d (degree %d)",
				name, u, len(arcs), len(backs), len(s.neighbors), g.Degree(ui))
		}
		for i := range arcs {
			p := graph.Port(i + 1)
			if arcs[i] != s.neighbors[i] || arcs[i] != g.Neighbor(ui, p) {
				t.Fatalf("%s: vertex %d port %d: Arcs=%d snapshot=%d Neighbor=%d",
					name, u, p, arcs[i], s.neighbors[i], g.Neighbor(ui, p))
			}
			if backs[i] != s.backs[i] || backs[i] != g.BackPort(ui, p) {
				t.Fatalf("%s: vertex %d port %d: BackPorts=%d snapshot=%d BackPort=%d",
					name, u, p, backs[i], s.backs[i], g.BackPort(ui, p))
			}
		}
	}
}

// TestCSRAccessorsAgreeEverywhere runs the agreement property on every
// conformance graph family, across the whole freeze lifecycle.
func TestCSRAccessorsAgreeEverywhere(t *testing.T) {
	for _, f := range confFamilies() {
		g := f.g
		before := snapshotArcs(g)
		checkAccessorsAgree(t, f.name+"/pre-freeze", g, before)

		g.Freeze()
		if !g.Frozen() {
			t.Fatalf("%s: Freeze did not set the frozen flag", f.name)
		}
		checkAccessorsAgree(t, f.name+"/frozen", g, before)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: frozen graph fails Validate: %v", f.name, err)
		}
		g.Freeze() // idempotent
		checkAccessorsAgree(t, f.name+"/refrozen", g, before)

		// Post-freeze mutation: append a fresh vertex and edge; the row
		// views must reallocate without corrupting the arena neighbors.
		w := g.AddNode()
		g.AddEdge(0, w)
		if g.Frozen() {
			t.Fatalf("%s: mutation left the graph marked frozen", f.name)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: post-freeze mutation fails Validate: %v", f.name, err)
		}
		after := snapshotArcs(g)
		checkAccessorsAgree(t, f.name+"/mutated", g, after)
		arcs0 := g.Arcs(0)
		if arcs0[len(arcs0)-1] != w {
			t.Fatalf("%s: new arc 0->%d not visible through Arcs", f.name, w)
		}
		for i, v := range before[0].neighbors {
			if arcs0[i] != v {
				t.Fatalf("%s: post-freeze append moved old arc %d of vertex 0", f.name, i)
			}
		}

		g.Freeze() // re-compact the mutated graph
		checkAccessorsAgree(t, f.name+"/recompacted", g, after)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: re-frozen graph fails Validate: %v", f.name, err)
		}
	}
}

// TestCSRPermutePortsAfterFreeze pins PermutePorts' interaction with the
// arena: relabeling a frozen vertex must keep back pointers mutually
// consistent (Validate) and clear the frozen flag.
func TestCSRPermutePortsAfterFreeze(t *testing.T) {
	for _, f := range confFamilies() {
		g := f.g
		g.Freeze()
		d := g.Degree(0)
		if d < 2 {
			continue
		}
		perm := make([]int, d)
		for i := range perm {
			perm[i] = (i + 1) % d // rotate ports
		}
		g.PermutePorts(0, perm)
		if g.Frozen() {
			t.Fatalf("%s: PermutePorts left the graph marked frozen", f.name)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: PermutePorts on frozen graph breaks invariants: %v", f.name, err)
		}
	}
}

// TestEvaluatorWorkerCountsStreamRace routes a shared frozen graph
// through the streaming evaluator at several worker counts — under
// `go test -race` (the CI configuration) this doubles as the data-race
// canary for concurrent CSR reads — and asserts the reports are
// bit-identical across worker counts, dense vs stream.
func TestEvaluatorWorkerCountsStreamRace(t *testing.T) {
	for _, f := range confFamilies() {
		g := f.g
		apsp := shortest.NewAPSPParallel(g, 0)
		s, err := table.New(g, apsp, table.MinPort)
		if err != nil {
			t.Fatalf("%s: tables: %v", f.name, err)
		}
		ref, err := evaluate.Stretch(g, s, apsp, evaluate.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: reference run: %v", f.name, err)
		}
		for _, workers := range []int{2, 4, 8} {
			for _, opt := range []evaluate.Options{
				{Workers: workers, DistMode: evaluate.DistDense},
				{Workers: workers, DistMode: evaluate.DistStream},
				// The batched stream backend serves 64-row prefetch blocks
				// and the evaluator claims 64-row-aligned chunks — same
				// report, and under -race the concurrent-claim canary for
				// the MS-BFS readers.
				{Workers: workers, DistMode: evaluate.DistStream, Kernel: shortest.KernelBatch},
			} {
				rep, err := evaluate.Stretch(g, s, apsp, opt)
				if err != nil {
					t.Fatalf("%s: workers=%d mode=%s kernel=%s: %v", f.name, workers, opt.DistMode, opt.Kernel, err)
				}
				if *rep != *ref {
					t.Fatalf("%s: workers=%d mode=%s kernel=%s report differs from serial reference:\n%+v\nvs\n%+v",
						f.name, workers, opt.DistMode, opt.Kernel, rep, ref)
				}
			}
		}
	}
}

// TestAPSPParallelMatchesSerial pins the table-construction contract
// after the kernel switch: NewAPSPParallel (whose auto kernel now
// resolves to the MS-BFS batch) stays bit-identical to the serial
// scalar NewAPSP at every worker count, on every conformance family —
// and so does each explicit kernel through NewAPSPWith.
func TestAPSPParallelMatchesSerial(t *testing.T) {
	for _, f := range confFamilies() {
		g := f.g
		ref := shortest.NewAPSP(g)
		check := func(label string, a *shortest.APSP) {
			t.Helper()
			for u := 0; u < g.Order(); u++ {
				if !reflect.DeepEqual(a.Row(graph.NodeID(u)), ref.Row(graph.NodeID(u))) {
					t.Fatalf("%s: %s: row %d differs from serial NewAPSP", f.name, label, u)
				}
			}
		}
		for _, w := range []int{1, 3, 8} {
			check(fmt.Sprintf("parallel workers=%d", w), shortest.NewAPSPParallel(g, w))
			for _, k := range []shortest.Kernel{shortest.KernelScalar, shortest.KernelBatch} {
				check(fmt.Sprintf("kernel=%s workers=%d", k, w),
					shortest.NewAPSPWith(g, shortest.APSPOptions{Workers: w, Kernel: k}))
			}
		}
	}
}
