package shortest

import (
	"fmt"
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
	// streaming answers one row (or one aligned block) per worker.
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
// an ALIGNED block of consecutive rows per claim: a Row(src) miss
// materializes rows [src - src%RowBatch(), …) in one pass, and further
// Row calls inside that block are free. Row-claiming loops (the
// evaluator's worker pool) check for it and claim RowBatch-aligned
// row chunks instead of single rows, so one worker's claims line up
// with its reader's prefetch blocks and no block is computed twice.
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

// --- row kernels: the metric behind a streaming source ---

// RowFunc computes the distance row from src into dist — reusing dist
// when it is large enough, allocating a fresh row otherwise (dist may be
// nil) — and returns the row. A RowFunc owns whatever traversal scratch
// it carries across calls, so it is NOT safe for concurrent use; sources
// create one per reader via a rowKernel factory.
type RowFunc func(src graph.NodeID, dist []int32) []int32

// rowKernel is what parameterizes the generic streaming source
// by metric: the unweighted kernel recomputes rows by BFS, the weighted
// one by Dijkstra under a validated weight assignment. Both are pure
// per-row functions of (graph[, weights], source), which is exactly the
// property the backend bit-identity contract rests on.
type rowKernel func() RowFunc

// bfsKernel returns a factory of BFS row functions over g, each owning
// its queue scratch.
func bfsKernel(g *graph.Graph) rowKernel {
	return func() RowFunc {
		var queue []graph.NodeID
		return func(src graph.NodeID, dist []int32) []int32 {
			dist, queue = BFSInto(g, src, dist, queue)
			return dist
		}
	}
}

// dijkstraKernel returns a factory of Dijkstra row functions over (g, w),
// each owning its heap scratch.
func dijkstraKernel(g *graph.Graph, w Weights) rowKernel {
	return func() RowFunc {
		var pq DijkstraHeap
		return func(src graph.NodeID, dist []int32) []int32 {
			dist, pq = DijkstraInto(g, w, src, dist, pq)
			return dist
		}
	}
}

// --- streaming backend: per-reader on-demand row recomputation ---

// StreamSource recomputes each requested row into per-reader scratch
// buffers: distance memory is one row per reader — O(workers·n) under a
// worker pool — instead of O(n²), at the cost of one traversal per
// (reader, row) visit. Exhaustive and sampled row-major evaluation visit
// each row once per claiming worker, so the total traversal work is the
// same n rows a dense table pays up front. The kernel is BFS under
// NewStreamSource and Dijkstra under NewWeightedStreamSource; everything
// else — residency, reader discipline, determinism — is metric-blind.
type StreamSource struct {
	n      int
	batch  int          // rows a reader computes per aligned claim (1 = scalar)
	kernel rowKernel    // per-row path (batch == 1)
	g      *graph.Graph // batch path (batch > 1): MSBFSInto reads the CSR directly
}

// NewStreamSource returns a streaming source of BFS (hop metric) rows
// over g, one row per claim — the scalar kernel, whose one resident row
// per reader contract is part of recorded experiment output. The graph
// is frozen to its CSR layout here — the last serial point before
// readers fan out across workers — so every per-row traversal walks
// contiguous arcs. NewStreamSourceKernel opts into the batched kernel.
func NewStreamSource(g *graph.Graph) *StreamSource {
	g.Freeze()
	return &StreamSource{n: g.Order(), batch: 1, kernel: bfsKernel(g)}
}

// NewStreamSourceKernel is NewStreamSource with an explicit row kernel.
// KernelBatch readers prefetch one MSBFSWidth-aligned block of rows per
// claimed source — Row(src) computes rows [src-src%64, …) in one
// word-parallel pass and serves the rest of the block for free — which
// multiplies per-reader residency by the block width (see ResidentRows)
// in exchange for amortizing every arc scan across up to 64 rows.
// KernelAuto and KernelScalar select the per-row source unchanged; an
// unknown kernel is an explicit error, never a silent fallback.
func NewStreamSourceKernel(g *graph.Graph, k Kernel) (*StreamSource, error) {
	switch k {
	case KernelAuto, KernelScalar:
		return NewStreamSource(g), nil
	case KernelBatch:
		g.Freeze()
		return &StreamSource{n: g.Order(), batch: MSBFSWidth, g: g}, nil
	default:
		return nil, fmt.Errorf("shortest: unknown kernel %d", int(k))
	}
}

// NewWeightedStreamSource returns a streaming source of Dijkstra rows
// under w — the weighted metric with the same O(workers·n) residency
// contract as NewStreamSource. Weights are validated here, the one
// serial point, so readers never see a malformed assignment.
func NewWeightedStreamSource(g *graph.Graph, w Weights) (*StreamSource, error) {
	if err := w.Validate(g); err != nil {
		return nil, err
	}
	g.Freeze()
	return &StreamSource{n: g.Order(), batch: 1, kernel: dijkstraKernel(g, w)}, nil
}

// Order implements DistanceSource.
func (s *StreamSource) Order() int { return s.n }

// RowBatch implements RowBatcher: the number of consecutive rows a
// reader materializes per aligned claim — MSBFSWidth for the batched
// kernel, 1 for the scalar and weighted kernels.
func (s *StreamSource) RowBatch() int { return s.batch }

// NewReader implements DistanceSource.
func (s *StreamSource) NewReader() RowReader {
	if s.batch > 1 {
		return &msbfsReader{g: s.g, n: s.n, batch: s.batch, start: -1}
	}
	return &streamReader{compute: s.kernel()}
}

// ResidentRows implements DistanceSource: each reader keeps one aligned
// block of RowBatch rows resident (one row under the scalar kernels), so
// the bound is workers × RowBatch, capped by the number of blocks that
// exist and by n. For batch == 1 this reduces to the historical
// one-row-per-worker bound exactly; the batched kernel's honest answer
// is 64 rows per worker — memreq's beyond-RAM accounting reports what a
// run will actually hold resident.
func (s *StreamSource) ResidentRows(workers int) int {
	w := normWorkers(workers)
	blocks := 0
	if s.batch > 0 {
		blocks = (s.n + s.batch - 1) / s.batch
	}
	if w > blocks {
		w = blocks
	}
	r := w * s.batch
	if r > s.n {
		r = s.n
	}
	return r
}

// msbfsReader is the batched streaming reader: one MSBFSWidth-aligned
// block of rows resident at a time, computed by a single word-parallel
// pass and carved from one contiguous block buffer. Rows of the resident
// block stay valid until a Row call outside it — a superset of the
// RowReader validity contract.
type msbfsReader struct {
	g     *graph.Graph
	n     int
	batch int
	start int // first row of the resident block; -1 = none
	width int // rows in the resident block
	block []int32
	scr   *MSBFSScratch
	srcs  []graph.NodeID
}

func (r *msbfsReader) Row(src graph.NodeID) []int32 {
	s := int(src)
	if r.start >= 0 && s >= r.start && s < r.start+r.width {
		i := s - r.start
		return r.block[i*r.n : (i+1)*r.n]
	}
	start := s - s%r.batch
	width := r.batch
	if start+width > r.n {
		width = r.n - start
	}
	r.srcs = r.srcs[:0]
	for u := start; u < start+width; u++ {
		r.srcs = append(r.srcs, graph.NodeID(u))
	}
	r.block, r.scr = MSBFSInto(r.g, r.srcs, r.block, r.scr)
	r.start, r.width = start, width
	i := s - start
	return r.block[i*r.n : (i+1)*r.n]
}

type streamReader struct {
	compute RowFunc
	src     graph.NodeID
	valid   bool
	dist    []int32
}

func (r *streamReader) Row(src graph.NodeID) []int32 {
	if r.valid && r.src == src {
		return r.dist
	}
	r.dist = r.compute(src, r.dist)
	r.src, r.valid = src, true
	return r.dist
}

var _ DistanceSource = (*StreamSource)(nil)
