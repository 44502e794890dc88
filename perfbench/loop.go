package main

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netserve"
	"repro/internal/serve"
)

// clients is the number of client workers, each with at most one
// request in flight (so at most two connections are in use).
const clients = 2

// sleepSlack is how early spinWait stops sleeping and starts spinning:
// time.Sleep oversleeps by up to a millisecond on Linux.
const sleepSlack = 1500 * time.Microsecond

// caller sends one pooled batch and returns the answers.
type caller func(poolIdx int, qs []serve.Query, out []serve.Result) []serve.Result

// checker compares the answers to one request with the reference and
// returns how many queries failed (error, refusal or wrong answer) and
// how many of those were wrong answers. sent and done bracket the
// request, for references that change over time (churn).
type checker func(poolIdx int, sent, done time.Time, got []serve.Result) (failed, wrong int)

// loopSpec is one pass of the open loop.
type loopSpec struct {
	rate  float64 // offered queries per second
	batch int
	dur   time.Duration
	pool  [][]serve.Query
	call  caller
	check checker
	tr    *tracer
	ids   *inflight // trace only: publishes the request ID of each pool slot
}

// loopStats is what one pass measured.
type loopStats struct {
	latUS    []float64 // by request number: done minus the time it was due, less the pacer's own oversleep; +Inf when a query failed
	lagUS    []float64 // by request number: generator lateness
	requests int64
	queries  int64
	failed   int64
	wrong    int64
	refused  int64
	elapsed  time.Duration // start to last completion
	queueUS  float64       // median wait for a free worker over the last 10% of requests
	mallocs  uint64
}

// achieved is answered queries per second over the pass.
func (st loopStats) achieved() float64 {
	if st.elapsed <= 0 {
		return 0
	}
	return float64(st.queries-st.failed) / st.elapsed.Seconds()
}

// latQuantile reads a latency quantile over the whole pass.
func (st loopStats) latQuantile(q float64) float64 {
	return quantile(sortedCopy(st.latUS), q)
}

// windowedQuantile splits the pass into windows consecutive runs of
// requests, takes the q-quantile of each and returns their median: a
// tail figure that one stall of a few milliseconds (the runtime
// polling the network late under load, a noisy neighbour) moves by at
// most one window.
func (st loopStats) windowedQuantile(windows int, q float64) float64 {
	per := len(st.latUS) / windows
	if per < 1 {
		return st.latQuantile(q)
	}
	qs := make([]float64, 0, windows)
	for w := 0; w < windows; w++ {
		qs = append(qs, quantile(sortedCopy(st.latUS[w*per:(w+1)*per]), q))
	}
	return median(qs)
}

// spinWait waits about d: it sleeps while d is long and spins for the
// last sleepSlack. It is the pacer's fallback when no precise timer is
// available; the spin holds a processor.
func spinWait(d time.Duration) {
	if d > sleepSlack {
		time.Sleep(d - sleepSlack)
		return
	}
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}

// openLoop runs one pass: request i is due at start + i*batch/rate,
// whether or not earlier requests have come back. A request is charged
// from its due time, so waiting for a busy worker counts as latency;
// when a worker was idle and the pacer woke it late, that oversleep is
// the generator's lag, reported on its own and not charged.
func openLoop(sp loopSpec) loopStats {
	interval := float64(time.Second) * float64(sp.batch) / sp.rate
	total := int64(float64(sp.dur) / interval)
	if total < 1 {
		total = 1
	}
	latUS := make([]float64, total)
	lagUS := make([]float64, total)
	type perWorker struct {
		spans            []span
		failed, wrong    int64
		refused, queries int64
		lastDone         time.Time
		tailQueue        []float64
	}
	ws := make([]perWorker, clients)
	tailFrom := total - max(1, total/10)
	var next atomic.Int64
	var wg sync.WaitGroup
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now().Add(200 * time.Microsecond)
	for w := range ws {
		wg.Add(1)
		go func(pw *perWorker) {
			defer wg.Done()
			var out []serve.Result
			pc := newPacer()
			defer pc.close()
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				due := start.Add(time.Duration(float64(i) * interval))
				claim := time.Now()
				sent := claim
				if claim.Before(due) {
					sent = pc.waitUntil(due)
				}
				pi := int(i % int64(len(sp.pool)))
				qs := sp.pool[pi]
				if sp.tr != nil {
					sp.ids.set(pi, uint64(i))
				}
				out = sp.call(pi, qs, out)
				done := time.Now()
				if sp.tr != nil {
					pw.spans = append(pw.spans, span{ID: uint64(i), Layer: "netserve", Start: sp.tr.at(sent), End: sp.tr.at(done)})
				}
				from, lag, queue := due, time.Duration(0), time.Duration(0)
				if claim.Before(due) {
					from, lag = sent, sent.Sub(due)
				} else {
					queue = claim.Sub(due)
				}
				if i >= tailFrom {
					pw.tailQueue = append(pw.tailQueue, durUS(queue))
				}
				latUS[i] = durUS(done.Sub(from))
				lagUS[i] = durUS(lag)
				f, wr := sp.check(pi, sent, done, out)
				if f > 0 {
					latUS[i] = math.Inf(1)
				}
				pw.failed += int64(f)
				pw.wrong += int64(wr)
				pw.queries += int64(len(qs))
				for _, r := range out {
					var ref *netserve.Refusal
					if r.Err != nil && errors.As(r.Err, &ref) {
						pw.refused++
					}
				}
				pw.lastDone = done
			}
		}(&ws[w])
	}
	wg.Wait()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	st := loopStats{requests: total, latUS: latUS, lagUS: lagUS, mallocs: after.Mallocs - before.Mallocs}
	var last time.Time
	var tailQueue []float64
	for _, pw := range ws {
		for _, s := range pw.spans {
			sp.tr.add(s)
		}
		st.failed += pw.failed
		st.wrong += pw.wrong
		st.refused += pw.refused
		st.queries += pw.queries
		tailQueue = append(tailQueue, pw.tailQueue...)
		if pw.lastDone.After(last) {
			last = pw.lastDone
		}
	}
	st.elapsed = last.Sub(start)
	st.queueUS = median(tailQueue)
	return st
}

// kneeStep is one rate the knee search tried.
type kneeStep struct {
	rate, achieved, p99US, queueUS float64
	pass                           bool
}

// kneeWindows is how many windows a knee step's p99 is read over.
const kneeWindows = 8

// sustains applies the knee rule to one pass: achieved/offered >= 0.99,
// p99 (the median of the windows' p99) within the limit, and no backlog
// left growing at the end.
func sustains(st loopStats, rate, limitUS float64) kneeStep {
	s := kneeStep{rate: rate, achieved: st.achieved(), p99US: st.windowedQuantile(kneeWindows, 0.99), queueUS: st.queueUS}
	s.pass = s.achieved >= 0.99*rate && s.p99US <= limitUS && s.queueUS <= limitUS
	return s
}

// findKnee locates the knee with an up-down staircase: starting at r0,
// the offered rate rises by a factor after a step that sustains it and
// falls by the same factor after a step that does not. The factor starts
// at 5/4 and shrinks (its square root) at every reversal, down to 1.02.
// Steps run until budget is spent. The knee is the geometric mean of the
// rates tried once the factor is at most 1.06: the rate a step sustains
// half of the time. Every step informs the estimate, so one step spoiled
// by a stall moves it by a fraction of a step.
func findKnee(r0 float64, budget time.Duration, try func(rate float64) kneeStep) (float64, []kneeStep) {
	const minFactor, settled = 1.02, 1.06
	var steps []kneeStep
	rate, factor := r0, 1.25
	var logSum float64
	var n int
	last := 0 // direction of the previous move: +1 up, -1 down
	for start := time.Now(); time.Since(start) < budget || n < 4; {
		s := try(rate)
		steps = append(steps, s)
		if factor <= settled {
			logSum += math.Log(rate)
			n++
		}
		dir := -1
		if s.pass {
			dir = 1
		}
		if last != 0 && dir != last {
			factor = math.Max(minFactor, math.Sqrt(factor))
		}
		last = dir
		if dir > 0 {
			rate *= factor
		} else {
			rate /= factor
		}
		if rate < r0/64 {
			return 0, steps
		}
	}
	return math.Exp(logSum / float64(n)), steps
}

// inflight maps pool slots to the request currently using them, so the
// traced handler (which sees only the decoded queries) can stamp its
// span with the client's request ID. The fingerprint of a pooled batch
// is its first query, kept unique across the pool.
type inflight struct {
	byQuery map[serve.Query]int
	slot    []atomic.Uint64
}

func newInflight(pool [][]serve.Query) *inflight {
	in := &inflight{byQuery: make(map[serve.Query]int, len(pool)), slot: make([]atomic.Uint64, len(pool))}
	for i, qs := range pool {
		in.byQuery[qs[0]] = i
	}
	return in
}

func (in *inflight) set(pi int, id uint64) { in.slot[pi].Store(id) }

// lookup returns the request ID of the in-flight batch qs.
func (in *inflight) lookup(qs []serve.Query) (uint64, bool) {
	if len(qs) == 0 {
		return 0, false
	}
	pi, ok := in.byQuery[qs[0]]
	if !ok {
		return 0, false
	}
	return in.slot[pi].Load(), true
}
