// Kernel conformance suite for the MS-BFS batch kernel: the property
// that lets table builds and row-major stream scans compute 64 rows per
// pass instead of one BFS per row without changing a recorded number is
//
//	MSBFSInto(g, sources)[i] == BFSInto(g, sources[i])  element-for-element
//
// for EVERY source, on every conformance family and on the adversarial
// shapes a word-parallel frontier gets wrong first (disconnected
// graphs, stars, long paths, a single vertex, orders that are not a
// multiple of 64). The suite partitions the sources at batch widths 1,
// 63, 64 and 65 — below, at, and across the word boundary — checks the
// batched APSP builder at three worker counts against the serial
// reference, and runs a race canary over both StreamSource reader paths
// (the CI configuration runs this file under `go test -race`).
package repro

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// msbfsConfGraphs returns the kernel conformance corpus: every routing
// conformance family plus the adversarial shapes for a bit-parallel
// frontier. Seeded generators keep the corpus reproducible.
func msbfsConfGraphs() []struct {
	name string
	g    *graph.Graph
} {
	twoComponents := graph.New(130) // two paths of 65: ragged AND disconnected
	for v := 0; v < 64; v++ {
		twoComponents.AddEdge(graph.NodeID(v), graph.NodeID(v+1))
		twoComponents.AddEdge(graph.NodeID(65+v), graph.NodeID(65+v+1))
	}
	gs := []struct {
		name string
		g    *graph.Graph
	}{
		{"single vertex", graph.New(1)},
		{"path(130)", gen.Path(130)},
		{"star(65)", gen.Star(65)},
		{"two components 65+65", twoComponents},
		{"random(63,seed5)", gen.RandomConnected(63, 0.1, xrand.New(5))},
		{"random(65,seed6)", gen.RandomConnected(65, 0.1, xrand.New(6))},
		{"random(200,seed7)", gen.RandomConnected(200, 0.05, xrand.New(7))},
		{"random(200,seed8)", gen.RandomConnected(200, 0.05, xrand.New(8))},
	}
	for _, f := range confFamilies() {
		gs = append(gs, struct {
			name string
			g    *graph.Graph
		}{f.name, f.g})
	}
	return gs
}

// scalarReference computes the per-source reference rows with the
// scalar kernel the repository has always used.
func scalarReference(g *graph.Graph) [][]int32 {
	n := g.Order()
	rows := make([][]int32, n)
	var queue []graph.NodeID
	for v := 0; v < n; v++ {
		rows[v], queue = shortest.BFSInto(g, graph.NodeID(v), nil, queue)
	}
	return rows
}

// TestMSBFSKernelConformance is the headline property: batched rows
// equal scalar rows element-for-element for every source, at batch
// widths below, at, and across the 64-lane word boundary, with dist and
// scratch buffers reused across batches exactly as the claiming workers
// reuse them.
func TestMSBFSKernelConformance(t *testing.T) {
	for _, tc := range msbfsConfGraphs() {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			n := g.Order()
			want := scalarReference(g)
			for _, width := range []int{1, 63, 64, 65} {
				var (
					dist []int32
					scr  *shortest.MSBFSScratch
					srcs []graph.NodeID
				)
				for start := 0; start < n; start += width {
					end := start + width
					if end > n {
						end = n
					}
					srcs = srcs[:0]
					for v := start; v < end; v++ {
						srcs = append(srcs, graph.NodeID(v))
					}
					dist, scr = shortest.MSBFSInto(g, srcs, dist, scr)
					for i, s := range srcs {
						got := dist[i*n : (i+1)*n]
						if !reflect.DeepEqual(got, want[s]) {
							t.Fatalf("width=%d: lane %d (source %d) differs from scalar BFS", width, i, s)
						}
					}
				}
			}
		})
	}
}

// TestMSBFSAPSPWorkerConformance pins the batch claim protocol end to
// end: a batched table build equals the serial scalar reference
// bit-for-bit at three worker counts, on every conformance graph.
func TestMSBFSAPSPWorkerConformance(t *testing.T) {
	for _, tc := range msbfsConfGraphs() {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			ref := shortest.NewAPSP(g)
			for _, workers := range []int{1, 3, 8} {
				a := shortest.NewAPSPParallel(g, workers)
				for u := 0; u < g.Order(); u++ {
					if !reflect.DeepEqual(a.Row(graph.NodeID(u)), ref.Row(graph.NodeID(u))) {
						t.Fatalf("workers=%d: row %d differs from serial NewAPSP", workers, u)
					}
				}
			}
		})
	}
}

// TestBatchedStreamSourceConcurrentRace hammers one shared hop
// StreamSource from 8 goroutines, each mixing row-major runs (the
// reader's MS-BFS block path) with strided, block-crossing jumps (its
// single-row BFS path) — under `go test -race` (the CI configuration)
// this is the data-race canary for both reader paths sharing a frozen
// CSR arena — and checks every returned row against scalar BFS.
func TestBatchedStreamSourceConcurrentRace(t *testing.T) {
	g := gen.RandomConnected(200, 0.05, xrand.New(9))
	n := g.Order()
	want := scalarReference(g)
	src := shortest.NewStreamSource(g)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rd := src.NewReader() // readers are per-goroutine; the source is shared
			for i := 0; i < 150; i++ {
				// Even rounds scan 5 rows in order from a strided start;
				// odd rounds jump by a stride that crosses blocks.
				v := (i*13 + w*31) % n
				rows := 1
				if i%2 == 0 {
					rows = 5
				}
				for j := 0; j < rows; j++ {
					u := (v + j) % n
					if !reflect.DeepEqual(rd.Row(graph.NodeID(u)), want[u]) {
						errs <- "stream row mismatch under concurrency"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
