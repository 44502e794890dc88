package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/netserve"
	"repro/internal/serve"
	"repro/internal/shortest"
)

// This file holds the wrappers that time layers from outside: each is
// handed to the program through a public parameter (serve.New's
// distance source, evaluate.Options.Distances, a netserve handler), so
// the program under test is unchanged.

// rowMeter wraps a DistanceSource and meters its readers. Every Row call
// is counted; a call whose source differs from the reader's previous
// one is the call that computes a row on a streaming backend and is
// timed (repeat calls for the same source are free on every backend by
// the RowReader contract, and timing each of them would cost more than
// the call). With spans set, each timed call also becomes a span
// stamped with the current pass ID.
type rowMeter struct {
	shortest.DistanceSource
	tr     *tracer
	spans  bool
	on     atomic.Bool
	passID atomic.Uint64

	mu      sync.Mutex
	readers []*meteredReader
}

// rowMeterBatch forwards RowBatch, so a backend with aligned prefetch
// blocks keeps them when metered (the evaluator claims rows by it).
type rowMeterBatch struct {
	*rowMeter
	batch int
}

func (s rowMeterBatch) RowBatch() int { return s.batch }

// meterRows wraps src. The returned source reports the inner source's
// RowBatch when it has one.
func meterRows(src shortest.DistanceSource, tr *tracer, spans bool) (shortest.DistanceSource, *rowMeter) {
	m := &rowMeter{DistanceSource: src, tr: tr, spans: spans}
	if rb, ok := src.(shortest.RowBatcher); ok {
		return rowMeterBatch{m, rb.RowBatch()}, m
	}
	return m, m
}

// NewReader implements shortest.DistanceSource.
func (m *rowMeter) NewReader() shortest.RowReader {
	r := &meteredReader{m: m, rd: m.DistanceSource.NewReader(), last: -1}
	m.mu.Lock()
	m.readers = append(m.readers, r)
	m.mu.Unlock()
	return r
}

// totals sums the readers' counters. Callers read them after the work
// that used the readers has finished.
func (m *rowMeter) totals() (calls, computes int64, busy time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range m.readers {
		calls += r.calls
		computes += r.computes
		busy += r.busy
	}
	return calls, computes, busy
}

type meteredReader struct {
	m        *rowMeter
	rd       shortest.RowReader
	last     graph.NodeID
	calls    int64
	computes int64
	busy     time.Duration
}

func (r *meteredReader) Row(src graph.NodeID) []int32 {
	if !r.m.on.Load() {
		return r.rd.Row(src)
	}
	r.calls++
	if src == r.last {
		return r.rd.Row(src)
	}
	r.last = src
	start := r.m.tr.now()
	row := r.rd.Row(src)
	end := r.m.tr.now()
	r.computes++
	r.busy += end - start
	if r.m.spans {
		r.m.tr.add(span{ID: r.m.passID.Load(), Layer: "shortest", Parent: "evaluate", Start: start, End: end})
	}
	return row
}

// handlerMeter wraps the shard's batch handler (serve.Server or
// serve.HotServer) in a span named "serve", stamped with the ID of the
// client request that carried the batch.
type handlerMeter struct {
	tr  *tracer
	ids *inflight
	on  atomic.Bool
}

func (hm *handlerMeter) wrap(h netserve.BatchHandlerInto) netserve.BatchHandlerInto {
	return func(qs []serve.Query, out []serve.Result) []serve.Result {
		if !hm.on.Load() {
			return h(qs, out)
		}
		id, ok := hm.ids.lookup(qs)
		start := hm.tr.now()
		out = h(qs, out)
		if ok {
			hm.tr.add(span{ID: id, Layer: "serve", Parent: "netserve", Start: start, End: hm.tr.now()})
		}
		return out
	}
}
