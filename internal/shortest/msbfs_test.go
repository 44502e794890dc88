package shortest

import (
	"reflect"
	"testing"

	"repro/internal/graph"
)

// msbfsRows runs MSBFSInto and slices the flat block into per-source
// rows for comparison.
func msbfsRows(t *testing.T, g *graph.Graph, sources []graph.NodeID, dist []int32, scr *MSBFSScratch) ([][]int32, []int32, *MSBFSScratch) {
	t.Helper()
	n := g.Order()
	dist, scr = MSBFSInto(g, sources, dist, scr)
	if len(dist) != len(sources)*n {
		t.Fatalf("MSBFSInto block length %d, want %d*%d", len(dist), len(sources), n)
	}
	rows := make([][]int32, len(sources))
	for i := range sources {
		rows[i] = dist[i*n : (i+1)*n]
	}
	return rows, dist, scr
}

// disconnectedGraph is two path components: 0-1-2 and 3-4-5.
func disconnectedGraph() *graph.Graph {
	g := graph.New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	return g
}

// pathGraph is the n-vertex path 0-1-…-(n-1): maximal diameter, the
// worst case for level-synchronized batching.
func pathGraph(n int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v < n-1; v++ {
		g.AddEdge(graph.NodeID(v), graph.NodeID(v+1))
	}
	return g
}

// starGraph is the n-vertex star with center 0.
func starGraph(n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(0, graph.NodeID(v))
	}
	return g
}

// TestMSBFSIntoEdgeCases is the table-driven edge-case suite: every case
// asserts each lane's row equals the scalar BFSInto row element for
// element — including lanes that must stay Unreachable everywhere they
// cannot reach.
func TestMSBFSIntoEdgeCases(t *testing.T) {
	wide := make([]graph.NodeID, 65) // > one word: exercises chunking
	for i := range wide {
		wide[i] = graph.NodeID(i % 9)
	}
	cases := []struct {
		name    string
		g       *graph.Graph
		sources []graph.NodeID
	}{
		{"empty batch", sourceTestGraph(), nil},
		{"batch of 1", sourceTestGraph(), []graph.NodeID{4}},
		{"duplicate sources", sourceTestGraph(), []graph.NodeID{3, 3, 5, 3}},
		{"disconnected components", disconnectedGraph(), []graph.NodeID{0, 2, 3, 5}},
		{"disconnected full batch", disconnectedGraph(), []graph.NodeID{0, 1, 2, 3, 4, 5}},
		{"n < 64 full batch", sourceTestGraph(), []graph.NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8}},
		{"single vertex", graph.New(1), []graph.NodeID{0}},
		{"path", pathGraph(30), []graph.NodeID{0, 29, 15}},
		{"star", starGraph(40), []graph.NodeID{0, 1, 39}},
		{"wider than one word", sourceTestGraph(), wide},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows, _, _ := msbfsRows(t, tc.g, tc.sources, nil, nil)
			for i, s := range tc.sources {
				want := BFS(tc.g, s)
				if !reflect.DeepEqual(rows[i], want) {
					t.Fatalf("lane %d (source %d): row %v, want %v", i, s, rows[i], want)
				}
			}
		})
	}
}

// TestMSBFSIntoUnreachableStaysInEveryLane pins the disconnected
// contract explicitly: for sources in one component, every vertex of the
// other component reports Unreachable in every lane.
func TestMSBFSIntoUnreachableStaysInEveryLane(t *testing.T) {
	g := disconnectedGraph()
	sources := []graph.NodeID{0, 1, 2}
	rows, _, _ := msbfsRows(t, g, sources, nil, nil)
	for i := range sources {
		for _, v := range []graph.NodeID{3, 4, 5} {
			if rows[i][v] != Unreachable {
				t.Fatalf("lane %d: vertex %d got distance %d, want Unreachable", i, v, rows[i][v])
			}
		}
	}
}

// TestMSBFSIntoReusesScratch checks the zero-allocation steady state the
// batch-claiming workers depend on: buffers big enough are reused in
// place across batches, and the reused-scratch rows still match BFS.
func TestMSBFSIntoReusesScratch(t *testing.T) {
	g := sourceTestGraph()
	first := []graph.NodeID{0, 1, 2, 3}
	dist, scr := MSBFSInto(g, first, nil, nil)
	second := []graph.NodeID{5, 6, 7, 8}
	d2, s2 := MSBFSInto(g, second, dist, scr)
	if &d2[0] != &dist[0] {
		t.Fatal("MSBFSInto reallocated a dist block that was large enough")
	}
	if s2 != scr {
		t.Fatal("MSBFSInto replaced the scratch it was given")
	}
	n := g.Order()
	for i, s := range second {
		if !reflect.DeepEqual(d2[i*n:(i+1)*n], BFS(g, s)) {
			t.Fatalf("reused-scratch lane %d (source %d) differs from fresh BFS", i, s)
		}
	}
	// A smaller batch into the same scratch must also stay exact (stale
	// words from the wider batch must not leak).
	d3, _ := MSBFSInto(g, []graph.NodeID{4}, d2, s2)
	if !reflect.DeepEqual(d3[:n], BFS(g, 4)) {
		t.Fatal("narrow batch after wide batch differs from fresh BFS")
	}
}

// TestNewAPSPParallelRaggedBatch pins the MS-BFS claim protocol of the
// parallel build: it is bit-identical to the serial reference at several
// worker counts, for a graph whose order is not a multiple of the batch
// width.
func TestNewAPSPParallelRaggedBatch(t *testing.T) {
	g := pathGraph(67) // 67 % 64 != 0: last batch is ragged
	ref := NewAPSP(g)
	for _, workers := range []int{1, 3, 8} {
		a := NewAPSPParallel(g, workers)
		for u := 0; u < g.Order(); u++ {
			if !reflect.DeepEqual(a.Row(graph.NodeID(u)), ref.Row(graph.NodeID(u))) {
				t.Fatalf("workers=%d: row %d differs from NewAPSP", workers, u)
			}
		}
	}
}

// TestBatchedStreamSource pins the hop stream reader: rows equal BFS for
// in-block, cross-block and repeated requests, and RowBatch advertises
// the 64-row block.
func TestBatchedStreamSource(t *testing.T) {
	g := pathGraph(130) // three blocks: 64 + 64 + 2
	src := NewStreamSource(g)
	if src.RowBatch() != MSBFSWidth {
		t.Fatalf("RowBatch() = %d, want %d", src.RowBatch(), MSBFSWidth)
	}
	rd := src.NewReader()
	// Walk forward, jump back across blocks, and hit the ragged tail.
	for _, v := range []int{0, 63, 64, 1, 129, 128, 65, 127, 0, 129} {
		if got, want := rd.Row(graph.NodeID(v)), BFS(g, graph.NodeID(v)); !reflect.DeepEqual(got, want) {
			t.Fatalf("row %d = %v…, want %v…", v, got[:4], want[:4])
		}
	}
}
