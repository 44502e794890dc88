// Package serve answers routing queries against one loaded scheme — the
// serving-shaped counterpart of internal/evaluate: where the evaluator
// sweeps the whole ordered-pair space once to produce a report, the
// server takes arbitrary batches of caller-chosen queries and answers
// each one, sharding the batch across a worker pool with the same
// claim-from-a-channel decomposition and the same per-worker
// distance-reader discipline (shortest.DistanceSource.NewReader) the
// evaluator uses for its rows.
//
// Results are positional — out[i] answers qs[i] — and every answer is
// computed independently by pure reads of the scheme, the frozen graph
// and a per-worker distance reader, so answers are bit-identical to the
// serial routing package whatever the worker count, and any number of
// goroutines may call ServeBatch on one Server concurrently. That last
// property is the read-only-after-decode contract of internal/schemeio,
// exercised under the race detector by this package's tests: a scheme
// decoded once can serve millions of concurrent queries with no locks
// anywhere on the query path.
package serve

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/shortest"
)

// Op selects what a query computes.
type Op uint8

const (
	// OpLen routes and returns the path length in edges.
	OpLen Op = iota
	// OpRoute routes and additionally materializes the hop sequence.
	OpRoute
	// OpStretch routes and compares with the oracle (exact shortest
	// distance from the server's DistanceSource): Len, Dist and their
	// ratio.
	OpStretch
)

// String names the op as the routeserve query syntax spells it.
func (op Op) String() string {
	switch op {
	case OpLen:
		return "len"
	case OpRoute:
		return "route"
	case OpStretch:
		return "stretch"
	default:
		return fmt.Sprintf("op-%d", uint8(op))
	}
}

// ParseOp maps a query keyword to an Op.
func ParseOp(s string) (Op, error) {
	switch s {
	case "len":
		return OpLen, nil
	case "route":
		return OpRoute, nil
	case "stretch":
		return OpStretch, nil
	default:
		return 0, fmt.Errorf("serve: unknown op %q (want route, len or stretch)", s)
	}
}

// Query is one routing question: route from U to V.
type Query struct {
	Op   Op
	U, V graph.NodeID
}

// Result answers one query. Err is per-query: one malformed or
// undeliverable query never poisons the rest of its batch.
type Result struct {
	Len     int           // routed path length in edges (all ops)
	Dist    int32         // shortest distance (OpStretch)
	Stretch float64       // Len / Dist (OpStretch)
	Hops    []routing.Hop // the walked path, delivery hop included (OpRoute)
	Err     error
}

// Options configure a Server.
type Options struct {
	// Workers is the per-batch pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// MaxHops bounds each simulated route; 0 selects the routing default.
	MaxHops int
}

// Server serves batches of routing queries against one scheme. The
// graph is frozen and the scheme must be read-only (every scheme in
// internal/scheme and everything internal/schemeio decodes qualifies);
// the Server itself holds no mutable state, so it is safe for
// concurrent ServeBatch calls.
type Server struct {
	g   *graph.Graph
	fn  routing.Function
	src shortest.DistanceSource // nil: OpStretch queries error
	opt Options
}

// batchChunk is the unit workers claim from a batch. Chunky enough to
// amortize channel traffic, small enough to balance skewed batches.
const batchChunk = 256

// LazySource defers building a distance backend until the first actual
// row read. A server must be handed its oracle before the ops of its
// query stream are known, but a dense backend costs an n² build — this
// wrapper makes that cost contingent on a stretch query ever arriving
// (routeserve wraps its dense oracle in one, keeping -load + route/len
// streams at load-in-milliseconds). build runs at most once, under
// concurrent NewReader/Row callers from any number of batches.
func LazySource(n int, build func() shortest.DistanceSource) shortest.DistanceSource {
	return &lazySource{n: n, build: build}
}

type lazySource struct {
	n     int
	once  sync.Once
	build func() shortest.DistanceSource
	src   shortest.DistanceSource
	err   error
}

// get resolves the backend exactly once. A build that panics must not
// poison the sync.Once — without the recover, every later Row call
// would nil-deref on the never-assigned src (sync.Once counts a
// panicked f as done). Instead the panic becomes a sticky error every
// subsequent stretch query surfaces per-query.
func (l *lazySource) get() (shortest.DistanceSource, error) {
	l.once.Do(func() {
		defer func() {
			if p := recover(); p != nil {
				l.err = fmt.Errorf("serve: lazy distance source build panicked: %v", p)
			}
		}()
		l.src = l.build()
		if l.src == nil && l.err == nil {
			l.err = fmt.Errorf("serve: lazy distance source build returned nil")
		}
	})
	return l.src, l.err
}

// Order implements shortest.DistanceSource.
func (l *lazySource) Order() int { return l.n }

// NewReader implements shortest.DistanceSource. The reader resolves the
// underlying source on its first Row call, so handing readers to
// workers stays free for batches that never ask for a distance.
func (l *lazySource) NewReader() shortest.RowReader { return &lazyReader{l: l} }

// ResidentRows implements shortest.DistanceSource. It must resolve: the
// bound is a property of the wrapped backend. A failed build has no
// resident rows.
func (l *lazySource) ResidentRows(workers int) int {
	src, err := l.get()
	if err != nil {
		return 0
	}
	return src.ResidentRows(workers)
}

// rowErrReader is the optional error side-channel of a RowReader: a
// reader that can fail to produce rows reports why here after Row
// returned nil. Only the lazy reader implements it today; serveOne
// checks for it only on a nil row, so healthy readers pay nothing.
type rowErrReader interface {
	Err() error
}

type lazyReader struct {
	l   *lazySource
	rd  shortest.RowReader
	err error
}

func (r *lazyReader) Row(src graph.NodeID) []int32 {
	if r.rd == nil {
		if r.err != nil {
			return nil
		}
		s, err := r.l.get()
		if err != nil {
			r.err = err
			return nil
		}
		r.rd = s.NewReader()
	}
	return r.rd.Row(src)
}

// Err implements rowErrReader: the sticky build failure, if any.
func (r *lazyReader) Err() error { return r.err }

// New returns a server for scheme fn on g. src supplies the oracle
// distances of OpStretch queries (shortest.DistanceSource: a dense
// table or a streaming backend both work — each worker gets
// its own reader); nil disables OpStretch with a per-query error.
func New(g *graph.Graph, fn routing.Function, src shortest.DistanceSource, opt Options) *Server {
	g.Freeze() // serial point: batch workers only read the CSR arcs
	return &Server{g: g, fn: fn, src: src, opt: opt}
}

// WithWorkers returns a server over the same graph, scheme and distance
// source with a different pool size. Servers are immutable, so the
// original keeps serving unchanged — this is how routeserve's -bench
// sweeps its worker ladder over one loaded scheme.
func (sv *Server) WithWorkers(workers int) *Server {
	c := *sv
	c.opt.Workers = workers
	return &c
}

// Workers returns the worker count a batch of the given size runs with.
func (sv *Server) Workers(batch int) int {
	w := sv.opt.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if chunks := (batch + batchChunk - 1) / batchChunk; w > chunks {
		w = chunks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ServeBatch answers every query in qs, positionally. It blocks until
// the whole batch is answered; the answers are independent of the
// worker count, and concurrent ServeBatch calls on one Server are safe.
func (sv *Server) ServeBatch(qs []Query) []Result {
	return sv.ServeBatchInto(qs, nil)
}

// ServeBatchInto is ServeBatch with a caller-recycled result buffer:
// when cap(out) covers the batch it is resliced and reused, otherwise
// a fresh slice is allocated. Every position is overwritten, so stale
// contents never leak between batches. This is the allocation-lean
// entry the network servers drive — one result buffer per connection
// instead of one per batch.
//
//repolint:hotpath
func (sv *Server) ServeBatchInto(qs []Query, out []Result) []Result {
	if cap(out) >= len(qs) {
		out = out[:len(qs)]
	} else {
		out = make([]Result, len(qs))
	}
	if len(qs) == 0 {
		return out
	}
	workers := sv.Workers(len(qs))
	if workers == 1 {
		sv.serveChunk(qs, out, sv.newReader())
		return out
	}
	next := make(chan int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//repolint:alloc-ok one worker goroutine per batch fan-out, amortized over the chunk loop
		go func() {
			defer wg.Done()
			rd := sv.newReader()
			for start := range next {
				end := start + batchChunk
				if end > len(qs) {
					end = len(qs)
				}
				sv.serveChunk(qs[start:end], out[start:end], rd)
			}
		}()
	}
	for start := 0; start < len(qs); start += batchChunk {
		next <- start
	}
	close(next)
	wg.Wait()
	return out
}

func (sv *Server) newReader() shortest.RowReader {
	if sv.src == nil {
		return nil
	}
	return sv.src.NewReader()
}

func (sv *Server) serveChunk(qs []Query, out []Result, rd shortest.RowReader) {
	for i := range qs {
		out[i] = sv.serveOne(qs[i], rd)
	}
}

func (sv *Server) serveOne(q Query, rd shortest.RowReader) Result {
	n := graph.NodeID(sv.g.Order())
	if q.U < 0 || q.U >= n || q.V < 0 || q.V >= n {
		return Result{Err: fmt.Errorf("serve: pair %d->%d outside [0,%d)", q.U, q.V, n)}
	}
	switch q.Op {
	case OpRoute:
		hops, err := routing.Route(sv.g, sv.fn, q.U, q.V, sv.opt.MaxHops)
		if err != nil {
			return Result{Err: err}
		}
		return Result{Len: routing.PathLen(hops), Hops: hops}
	case OpLen:
		l, err := routing.RouteLen(sv.g, sv.fn, q.U, q.V, sv.opt.MaxHops)
		if err != nil {
			return Result{Err: err}
		}
		return Result{Len: l}
	case OpStretch:
		if rd == nil {
			return Result{Err: fmt.Errorf("serve: no distance source configured for stretch queries")}
		}
		if q.U == q.V {
			return Result{Err: fmt.Errorf("serve: stretch of %d->%d undefined (zero distance)", q.U, q.V)}
		}
		l, err := routing.RouteLen(sv.g, sv.fn, q.U, q.V, sv.opt.MaxHops)
		if err != nil {
			return Result{Err: err}
		}
		row := rd.Row(q.U)
		if row == nil {
			err := fmt.Errorf("serve: distance source produced no row for %d", q.U)
			if er, ok := rd.(rowErrReader); ok {
				if e := er.Err(); e != nil {
					err = e
				}
			}
			return Result{Err: err}
		}
		d := row[q.V]
		if d == shortest.Unreachable {
			return Result{Err: fmt.Errorf("serve: pair %d->%d unreachable", q.U, q.V)}
		}
		return Result{Len: l, Dist: d, Stretch: float64(l) / float64(d)}
	default:
		return Result{Err: fmt.Errorf("serve: unknown op %d", q.Op)}
	}
}
