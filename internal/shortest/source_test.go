package shortest

import (
	"reflect"
	"testing"

	"repro/internal/graph"
)

// sourceTestGraph is a small connected graph with a nontrivial distance
// profile: a 3x3 grid with one chord.
func sourceTestGraph() *graph.Graph {
	g := graph.New(9)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			v := graph.NodeID(3*r + c)
			if c < 2 {
				g.AddEdge(v, v+1)
			}
			if r < 2 {
				g.AddEdge(v, v+3)
			}
		}
	}
	g.AddEdge(0, 8)
	return g
}

// TestSourcesAgreeWithBFS pins the backend contract: every source's
// every row equals the plain BFS row, for repeated and interleaved
// requests.
func TestSourcesAgreeWithBFS(t *testing.T) {
	g := sourceTestGraph()
	n := g.Order()
	want := make([][]int32, n)
	for v := 0; v < n; v++ {
		want[v] = BFS(g, graph.NodeID(v))
	}
	sources := map[string]DistanceSource{
		"dense":  NewAPSP(g),
		"stream": NewStreamSource(g),
	}
	for name, src := range sources {
		if src.Order() != n {
			t.Fatalf("%s: order %d, want %d", name, src.Order(), n)
		}
		rd := src.NewReader()
		// Interleave rows so stream scratch reuse is exercised; ask some
		// rows twice in a row (the memoized path).
		for _, v := range []int{0, 5, 5, 8, 0, 3, 3, 1, 7, 0} {
			got := rd.Row(graph.NodeID(v))
			if !reflect.DeepEqual(got, want[v]) {
				t.Fatalf("%s: row %d = %v, want %v", name, v, got, want[v])
			}
		}
	}
}

// TestWeightedSourcesAgreeWithDijkstra pins the weighted backend
// contract: every weighted source's every row equals the plain Dijkstra
// row under the same weights, for repeated and interleaved requests —
// the weighted mirror of TestSourcesAgreeWithBFS.
func TestWeightedSourcesAgreeWithDijkstra(t *testing.T) {
	g := sourceTestGraph()
	n := g.Order()
	w := UniformWeights(g)
	// Perturb a few edges so weighted rows genuinely differ from BFS rows.
	for _, e := range [][2]graph.NodeID{{0, 1}, {4, 5}, {0, 8}} {
		p := g.PortTo(e[0], e[1])
		w[e[0]][p-1] = 7
		w[e[1]][g.BackPort(e[0], p)-1] = 7
	}
	want := make([][]int32, n)
	for v := 0; v < n; v++ {
		want[v] = Dijkstra(g, w, graph.NodeID(v))
	}
	dense, err := NewWeightedAPSP(g, w)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := NewWeightedStreamSource(g, w)
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]DistanceSource{"dense": dense, "stream": stream}
	for name, src := range sources {
		if src.Order() != n {
			t.Fatalf("%s: order %d, want %d", name, src.Order(), n)
		}
		rd := src.NewReader()
		for _, v := range []int{0, 5, 5, 8, 0, 3, 3, 1, 7, 0} {
			got := rd.Row(graph.NodeID(v))
			if !reflect.DeepEqual(got, want[v]) {
				t.Fatalf("%s: row %d = %v, want %v", name, v, got, want[v])
			}
		}
	}
	// Residency hints follow the same contracts as the unweighted sources.
	if got := stream.ResidentRows(4); got != 4 {
		t.Fatalf("weighted stream hint %d, want 4", got)
	}
}

// TestWeightedSourcesRejectMalformedWeights checks validation happens at
// construction — before any reader can trip over a bad assignment.
func TestWeightedSourcesRejectMalformedWeights(t *testing.T) {
	g := sourceTestGraph()
	bad := UniformWeights(g)
	bad[2] = bad[2][:1]
	if _, err := NewWeightedStreamSource(g, bad); err == nil {
		t.Fatal("stream source accepted malformed weights")
	}
}

// TestResidentRowsHints pins the bulk memory hints each backend reports.
func TestResidentRowsHints(t *testing.T) {
	g := sourceTestGraph() // n = 9
	if got := NewAPSP(g).ResidentRows(4); got != 9 {
		t.Fatalf("dense hint %d, want n=9", got)
	}
	if got := NewStreamSource(g).ResidentRows(4); got != 4 {
		t.Fatalf("stream hint %d, want workers=4", got)
	}
	if got := NewStreamSource(g).ResidentRows(64); got != 9 {
		t.Fatalf("stream hint %d, want clamp to n=9", got)
	}
	// The explicit scalar kernel is the same source as NewStreamSource —
	// same hints, and RowBatch advertises single-row claims.
	scalar, err := NewStreamSourceKernel(g, KernelScalar)
	if err != nil {
		t.Fatal(err)
	}
	if got := scalar.ResidentRows(4); got != 4 {
		t.Fatalf("scalar-kernel stream hint %d, want workers=4", got)
	}
	if scalar.RowBatch() != 1 {
		t.Fatalf("scalar stream RowBatch() = %d, want 1", scalar.RowBatch())
	}
}

// TestBatchedStreamResidentRows pins the batched kernel's resident-row
// accounting: each reader holds one 64-row prefetch block, so the hint
// is workers×64, capped by the number of blocks that exist and by n —
// this is what keeps memreq's beyond-RAM claims honest when -kernel
// batch multiplies per-reader residency.
func TestBatchedStreamResidentRows(t *testing.T) {
	big := graph.New(200) // 4 blocks: 64+64+64+8
	for v := 0; v < 199; v++ {
		big.AddEdge(graph.NodeID(v), graph.NodeID(v+1))
	}
	src, err := NewStreamSourceKernel(big, KernelBatch)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ workers, want int }{
		{1, 64},   // one reader, one block
		{2, 128},  // two blocks
		{3, 192},  // three blocks
		{4, 200},  // 4*64 = 256 capped at n
		{64, 200}, // more workers than blocks: every row could be resident
	} {
		if got := src.ResidentRows(tc.workers); got != tc.want {
			t.Fatalf("batched stream ResidentRows(%d) = %d, want %d", tc.workers, got, tc.want)
		}
	}
	// Small graphs: a single ragged block, never more than n.
	small, err := NewStreamSourceKernel(sourceTestGraph(), KernelBatch) // n = 9
	if err != nil {
		t.Fatal(err)
	}
	if got := small.ResidentRows(4); got != 9 {
		t.Fatalf("batched stream ResidentRows(4) on n=9 = %d, want 9", got)
	}
	if got := small.ResidentRows(1); got != 9 {
		t.Fatalf("batched stream ResidentRows(1) on n=9 = %d, want 9", got)
	}
}

// TestBFSIntoReusesScratch checks the zero-allocation steady state the
// streaming reader depends on: buffers big enough are reused in place.
func TestBFSIntoReusesScratch(t *testing.T) {
	g := sourceTestGraph()
	dist, queue := BFSInto(g, 0, nil, nil)
	d2, q2 := BFSInto(g, 4, dist, queue)
	if &d2[0] != &dist[0] || &q2[0] != &queue[:1][0] {
		t.Fatal("BFSInto reallocated buffers that were large enough")
	}
	if !reflect.DeepEqual(d2, BFS(g, 4)) {
		t.Fatal("reused-scratch row differs from fresh BFS")
	}
}
