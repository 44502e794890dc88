package shortest

import (
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
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
	// A hop stream reader may hold one 64-row block; on n=9 that single
	// ragged block is the whole graph, whatever the worker count.
	stream := NewStreamSource(g)
	for _, workers := range []int{1, 4, 64} {
		if got := stream.ResidentRows(workers); got != 9 {
			t.Fatalf("stream hint at %d workers = %d, want clamp to n=9", workers, got)
		}
	}
	if stream.RowBatch() != MSBFSWidth {
		t.Fatalf("stream RowBatch() = %d, want %d", stream.RowBatch(), MSBFSWidth)
	}
}

// TestBatchedStreamResidentRows pins the hop stream's resident-row
// accounting: each reader may hold one 64-row block, so the hint is
// workers×64, capped by the number of blocks that exist and by n —
// this is what keeps memreq's beyond-RAM claims honest.
func TestBatchedStreamResidentRows(t *testing.T) {
	big := graph.New(200) // 4 blocks: 64+64+64+8
	for v := 0; v < 199; v++ {
		big.AddEdge(graph.NodeID(v), graph.NodeID(v+1))
	}
	src := NewStreamSource(big)
	for _, tc := range []struct{ workers, want int }{
		{1, 64},   // one reader, one block
		{2, 128},  // two blocks
		{3, 192},  // three blocks
		{4, 200},  // 4*64 = 256 capped at n
		{64, 200}, // more workers than blocks: every row could be resident
	} {
		if got := src.ResidentRows(tc.workers); got != tc.want {
			t.Fatalf("stream ResidentRows(%d) = %d, want %d", tc.workers, got, tc.want)
		}
	}
	// Small graphs: a single ragged block, never more than n.
	small := NewStreamSource(sourceTestGraph()) // n = 9
	if got := small.ResidentRows(4); got != 9 {
		t.Fatalf("stream ResidentRows(4) on n=9 = %d, want 9", got)
	}
	if got := small.ResidentRows(1); got != 9 {
		t.Fatalf("stream ResidentRows(1) on n=9 = %d, want 9", got)
	}
}

// TestStreamReaderAccessPattern drives one hop reader through random
// jumps, repeats and row-major runs that cross block boundaries, on a
// graph whose order is not a multiple of 64. Every row must equal
// BFSInto; a stream with no src == previous+1 step must keep the buffer
// at one row, and a scan must switch to the aligned 64-row block.
func TestStreamReaderAccessPattern(t *testing.T) {
	g := gen.RandomConnected(200, 0.05, xrand.New(21))
	n := g.Order()
	want := make([][]int32, n)
	var queue []graph.NodeID
	for v := range want {
		want[v], queue = BFSInto(g, graph.NodeID(v), nil, queue)
	}
	rd := NewStreamSource(g).NewReader().(*bfsReader)
	prev := -1
	check := func(v int) {
		t.Helper()
		if got := rd.Row(graph.NodeID(v)); !reflect.DeepEqual(got, want[v]) {
			t.Fatalf("row %d (after %d) differs from BFSInto", v, prev)
		}
		prev = v
	}
	jumps := func(seed uint64) {
		t.Helper()
		r := xrand.New(seed)
		for i := 0; i < 300; i++ {
			v := r.Intn(n)
			if v == prev+1 {
				continue
			}
			check(v)
			if i%5 == 0 {
				check(v) // repeat: served from the resident row
			}
		}
	}

	jumps(5)
	if cap(rd.buf) != n {
		t.Fatalf("non-sequential stream grew the buffer to %d entries, want one row (%d)", cap(rd.buf), n)
	}
	for _, run := range [][2]int{{60, 70}, {125, 135}, {190, 200}, {0, 3}, {62, 66}} {
		for v := run[0]; v < run[1]; v++ {
			check(v)
		}
		last := run[1] - 1
		if start := last - last%MSBFSWidth; rd.start != start || rd.width != min(MSBFSWidth, n-start) {
			t.Fatalf("after scan %v: resident rows [%d, %d), want the aligned block at %d", run, rd.start, rd.start+rd.width, start)
		}
	}
	// Jumps after scans reuse the grown buffer and stay exact.
	jumps(6)
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
