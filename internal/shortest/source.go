package shortest

import (
	"runtime"

	"repro/internal/graph"
)

// DistanceSource abstracts WHERE exact distance rows come from — a dense
// precomputed table or per-row recomputation — without changing WHAT a
// measurement sees: every backend returns bit-identical rows (a row is a
// pure function of graph, metric and source — BFS for the hop metric,
// Dijkstra under a weight assignment for the weighted one), so any
// report built on one backend is bit-identical to the same report built
// on the other. This is what lets the all-pairs evaluator in
// internal/evaluate trade the O(n²) table for O(workers·n) resident rows
// on graphs past RAM while keeping the EXPERIMENTS.md determinism
// contract intact, in both metrics.
type DistanceSource interface {
	// Order is the number of vertices covered by the source.
	Order() int
	// NewReader returns a row handle for one goroutine. Readers are NOT
	// safe for concurrent use — a worker pool takes one reader per
	// worker — but NewReader itself and the source behind the readers
	// are.
	NewReader() RowReader
	// ResidentRows is the bulk memory hint: an upper bound on how many
	// n-entry int32 rows the source keeps resident when read by the
	// given number of concurrent readers (workers <= 0 selects
	// GOMAXPROCS). Dense tables answer n regardless of workers;
	// streaming answers one aligned block of RowBatch rows per worker.
	ResidentRows(workers int) int
}

// RowReader yields distance rows for one goroutine.
type RowReader interface {
	// Row returns the distance vector from src: row[v] = d_G(src, v),
	// Unreachable for vertices in other components. The slice is
	// read-only and only valid until the next Row call on the same
	// reader. Consecutive calls with the same src are cheap on every
	// backend, which is the access pattern of row-major pair evaluation.
	Row(src graph.NodeID) []int32
}

// RowBatcher is optionally implemented by sources whose readers compute
// an ALIGNED block of consecutive rows during a row-major scan: a
// Row(src) miss that continues a scan materializes rows
// [src - src%RowBatch(), …) in one pass, and further Row calls inside
// that block are free. Row-claiming loops (the evaluator's worker pool)
// check for it and claim RowBatch-aligned row chunks instead of single
// rows, so one worker's claims line up with its reader's blocks and no
// block is computed twice.
// RowBatch is 1 for pure per-row sources.
type RowBatcher interface {
	RowBatch() int
}

func normWorkers(workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// --- dense backend: the precomputed APSP table ---

// NewReader implements DistanceSource: the table itself already satisfies
// RowReader (Row is an index into the dense table), and concurrent reads
// of an immutable table are safe, so every reader is the table.
func (a *APSP) NewReader() RowReader { return a }

// ResidentRows implements DistanceSource: a dense table keeps all n rows
// resident whatever the worker count.
func (a *APSP) ResidentRows(workers int) int { return a.n }

var _ DistanceSource = (*APSP)(nil)
var _ RowReader = (*APSP)(nil)

// --- streaming backend: per-reader on-demand row recomputation ---

// StreamSource recomputes requested rows into per-reader buffers:
// distance memory is at most one MSBFSWidth-row block per reader —
// O(workers·n) under a worker pool — instead of O(n²), at the cost of
// recomputing rows on demand. Row-major evaluation computes each row
// once per claiming worker, so the total traversal work is the same n
// rows a dense table pays up front. Rows are BFS rows under
// NewStreamSource and Dijkstra rows under NewWeightedStreamSource;
// the residency bound and reader discipline are metric-blind.
type StreamSource struct {
	g        *graph.Graph
	n        int
	w        Weights // Dijkstra weights; nil for BFS rows
	weighted bool
}

// NewStreamSource returns a streaming source of BFS (hop metric) rows
// over g. The graph is frozen to its CSR layout here — the last serial
// point before readers fan out across workers — so every traversal
// walks contiguous arcs. Each reader picks how to compute a missed row
// from the order of its requests (see bfsReader): a row-major scan gets
// the aligned MSBFSWidth-row block in one MSBFSInto pass, any other
// request one BFSInto row.
func NewStreamSource(g *graph.Graph) *StreamSource {
	g.Freeze()
	return &StreamSource{g: g, n: g.Order()}
}

// NewWeightedStreamSource returns a streaming source of Dijkstra rows
// under w — the weighted metric with the same O(workers·n) residency
// contract as NewStreamSource, one row per reader. Weights are
// validated here, the one serial point, so readers never see a
// malformed assignment.
func NewWeightedStreamSource(g *graph.Graph, w Weights) (*StreamSource, error) {
	if err := w.Validate(g); err != nil {
		return nil, err
	}
	g.Freeze()
	return &StreamSource{g: g, n: g.Order(), w: w, weighted: true}, nil
}

// Order implements DistanceSource.
func (s *StreamSource) Order() int { return s.n }

// RowBatch implements RowBatcher: the number of consecutive rows a
// reader materializes per aligned block — MSBFSWidth for BFS rows, 1
// for Dijkstra rows.
func (s *StreamSource) RowBatch() int {
	if s.weighted {
		return 1
	}
	return MSBFSWidth
}

// NewReader implements DistanceSource.
func (s *StreamSource) NewReader() RowReader {
	if s.weighted {
		return &dijkstraReader{g: s.g, w: s.w, src: -1}
	}
	return &bfsReader{g: s.g, n: s.n, last: -1}
}

// ResidentRows implements DistanceSource: each reader keeps at most one
// aligned block of RowBatch rows resident, so the bound is
// workers × RowBatch, capped by the number of blocks that exist and by
// n. A BFS reader that never scans holds one row; the bound is the
// honest worst case, which is what memreq's beyond-RAM accounting
// reports.
func (s *StreamSource) ResidentRows(workers int) int {
	batch := s.RowBatch()
	w := normWorkers(workers)
	if blocks := (s.n + batch - 1) / batch; w > blocks {
		w = blocks
	}
	return min(w*batch, s.n)
}

// bfsReader is the hop-metric streaming reader. It owns one buffer of
// at most MSBFSWidth rows and picks how to fill it on a miss from the
// order of requests:
//
//   - block path: src is the previous request + 1, i.e. a row-major
//     scan (the evaluator's aligned claims, routing.MeasureStretch).
//     One MSBFSInto pass computes the aligned block holding src, and
//     the scan's next rows in that block are free;
//   - single-row path: any other miss (serving's random sources) runs
//     one BFSInto into the front of the same buffer, so a reader that
//     never scans never grows past one row.
//
// Either way the rows are bit-identical to BFSInto. Rows of the
// resident block stay valid until a Row call outside it — a superset of
// the RowReader validity contract.
type bfsReader struct {
	g     *graph.Graph
	n     int
	last  int // previous request; -1 before the first
	start int // resident rows are [start, start+width)
	width int
	buf   []int32
	queue []graph.NodeID
	scr   *MSBFSScratch
	srcs  []graph.NodeID
}

func (r *bfsReader) Row(src graph.NodeID) []int32 {
	s := int(src)
	scan := r.last >= 0 && s == r.last+1
	r.last = s
	if s < r.start || s >= r.start+r.width {
		if scan {
			r.start = s - s%MSBFSWidth
			r.width = min(MSBFSWidth, r.n-r.start)
			r.srcs = r.srcs[:0]
			for u := r.start; u < r.start+r.width; u++ {
				r.srcs = append(r.srcs, graph.NodeID(u))
			}
			r.buf, r.scr = MSBFSInto(r.g, r.srcs, r.buf, r.scr)
		} else {
			r.buf, r.queue = BFSInto(r.g, src, r.buf, r.queue)
			r.start, r.width = s, 1
		}
	}
	i := s - r.start
	return r.buf[i*r.n : (i+1)*r.n]
}

// dijkstraReader is the weighted streaming reader: one Dijkstra row
// resident, recomputed whenever the source changes.
type dijkstraReader struct {
	g    *graph.Graph
	w    Weights
	src  graph.NodeID // source of dist; -1 = none
	dist []int32
	pq   DijkstraHeap
}

func (r *dijkstraReader) Row(src graph.NodeID) []int32 {
	if src != r.src {
		r.dist, r.pq = DijkstraInto(r.g, r.w, src, r.dist, r.pq)
		r.src = src
	}
	return r.dist
}

var _ DistanceSource = (*StreamSource)(nil)
