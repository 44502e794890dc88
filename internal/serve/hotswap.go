package serve

import (
	"sync/atomic"
)

// generation pairs one immutable Server with its monotonically
// increasing sequence number. The pair is published as a unit: a batch
// that observes seq g routes every one of its queries against the
// matching server, never a mix.
type generation struct {
	seq uint64
	sv  *Server
}

// HotServer serves batches against a swappable scheme generation — the
// dynamic-topology counterpart of the immutable Server. Swap installs a
// new generation atomically; batches already running keep the Server
// pointer they loaded at entry and drain on it (generation g), while
// every batch that starts after the swap routes on g+1. There are no
// locks anywhere: the only synchronization is one atomic pointer load
// per BATCH (not per query), so the hot path of ServeBatchInto is
// unchanged from the immutable Server's.
//
// The drain contract this buys: a fault-repair pipeline can build the
// repaired scheme off to the side, wrap it in a fresh Server, and Swap
// it in while the old generation is still answering — zero dropped or
// torn batches, verified under the race detector by TestHotSwapDrain.
type HotServer struct {
	cur atomic.Pointer[generation]
}

// NewHot returns a hot server whose first generation (seq 1) is sv.
func NewHot(sv *Server) *HotServer {
	h := &HotServer{}
	h.cur.Store(&generation{seq: 1, sv: sv})
	return h
}

// Swap atomically installs sv as the next generation and returns its
// sequence number. In-flight batches finish on the generation they
// started with; new batches observe sv immediately. Concurrent Swap
// calls serialize through the compare-and-swap, so sequence numbers
// never repeat or regress.
func (h *HotServer) Swap(sv *Server) uint64 {
	for {
		old := h.cur.Load()
		next := &generation{seq: old.seq + 1, sv: sv}
		if h.cur.CompareAndSwap(old, next) {
			return next.seq
		}
	}
}

// Generation returns the sequence number of the current generation.
func (h *HotServer) Generation() uint64 {
	return h.cur.Load().seq
}

// Server returns the current generation's server — for callers that
// need batch-independent reads (Workers, option introspection). The
// returned Server is immutable and stays valid after any Swap.
func (h *HotServer) Server() *Server {
	return h.cur.Load().sv
}

// ServeBatchInto answers every query in qs against one consistent
// generation, reusing out for the results, and reports which generation
// it was. The generation pointer is loaded exactly once, before the first
// query; a Swap landing mid-batch has no effect on this batch.
//
//repolint:hotpath
func (h *HotServer) ServeBatchInto(qs []Query, out []Result) ([]Result, uint64) {
	gen := h.cur.Load()
	return gen.sv.ServeBatchInto(qs, out), gen.seq
}
