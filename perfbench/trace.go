package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside it. Spans
// of one request (or set-up repetition, fault cycle, evaluation pass)
// share ID; Parent names the layer whose span encloses this one.
type span struct {
	ID     uint64        `json:"id"`
	Layer  string        `json:"layer"`
	Parent string        `json:"parent,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; write dumps them when the run ends. A
// nil *tracer is the untraced run: every method is a no-op, so call
// sites need no branches.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// now is the trace clock: time since the tracer started.
func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// at converts a wall-clock reading to the trace clock.
func (t *tracer) at(w time.Time) time.Duration {
	if t == nil {
		return 0
	}
	return w.Sub(t.epoch)
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record runs f inside a span of layer.
func (t *tracer) record(id uint64, layer, parent string, f func() error) error {
	start := t.now()
	err := f()
	t.add(span{ID: id, Layer: layer, Parent: parent, Start: start, End: t.now()})
	return err
}

// stage is one step of a set-up or a fault cycle, timed as a span of
// its layer.
type stage struct {
	layer string
	f     func() error
}

// runStages runs stages in order, each inside a span, and stops at the
// first error.
func (t *tracer) runStages(id uint64, parent string, stages []stage) error {
	for _, st := range stages {
		if err := t.record(id, st.layer, parent, st.f); err != nil {
			return fmt.Errorf("%s: %w", st.layer, err)
		}
	}
	return nil
}

// byLayer returns the spans of one layer.
func (t *tracer) byLayer(layer string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Layer == layer {
			out = append(out, s)
		}
	}
	return out
}

// durationsMS lists the durations of one layer's spans in milliseconds.
func (t *tracer) durationsMS(layer string) []float64 {
	var out []float64
	for _, s := range t.byLayer(layer) {
		out = append(out, durMS(s.dur()))
	}
	return out
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is parent's duration minus the part of its interval that the
// children cover (their union, clipped to the parent), so overlapping
// children running on parallel workers are not counted twice.
func selfTime(parent span, children []span) time.Duration {
	iv := make([]span, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e > s {
			iv = append(iv, span{Start: s, End: e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var covered time.Duration
	var curS, curE time.Duration
	open := false
	for _, c := range iv {
		switch {
		case !open:
			curS, curE, open = c.Start, c.End, true
		case c.Start <= curE:
			curE = max(curE, c.End)
		default:
			covered += curE - curS
			curS, curE = c.Start, c.End
		}
	}
	if open {
		covered += curE - curS
	}
	return parent.dur() - covered
}

// reconcile checks the traced serving run's accounting, request by
// request: the client span (around Cluster.ServeBatchInto) must enclose
// the handler span of the same ID. netserve self time is the client span
// minus the handler span, so client = handler + netserve self holds by
// definition; what can fail, and what this catches, is a handler span
// attributed to the wrong request or timed outside the call it belongs
// to. It returns the netserve self times in microseconds.
func reconcile(client, handler []span) ([]float64, error) {
	hs := make(map[uint64]span, len(handler))
	for _, h := range handler {
		if _, dup := hs[h.ID]; dup {
			return nil, fmt.Errorf("request %d has two handler spans", h.ID)
		}
		hs[h.ID] = h
	}
	var selfUS []float64
	for _, c := range client {
		h, ok := hs[c.ID]
		if !ok {
			continue // refused or failed before the handler ran: no child span
		}
		if h.Start < c.Start || h.End > c.End {
			return nil, fmt.Errorf("request %d: handler span [%v,%v] outside client span [%v,%v]", c.ID, h.Start, h.End, c.Start, c.End)
		}
		selfUS = append(selfUS, durUS(selfTime(c, []span{h})))
	}
	if len(selfUS) == 0 {
		return nil, fmt.Errorf("no request had both a client and a handler span")
	}
	return selfUS, nil
}
