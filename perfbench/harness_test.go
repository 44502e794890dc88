package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/netserve"
	"repro/internal/scheme/table"
	"repro/internal/schemeio"
	"repro/internal/serve"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

const testN = 64

// testSystem boots a small tables shard. wrap, when non-nil, replaces
// the handler (to corrupt answers or to meter it).
func testSystem(t *testing.T, wrap func(netserve.BatchHandlerInto) netserve.BatchHandlerInto) (*shard, [][]serve.Query, [][]serve.Result) {
	t.Helper()
	g, err := gen.ByName("random", testN, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	apsp := shortest.NewAPSP(g)
	ts, err := table.New(g, apsp, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	pool := makePool(7, testN, 8, wireSpec.ops)
	want := serialAnswers(g, ts, apsp, pool)
	var h netserve.BatchHandlerInto = serve.New(g, ts, apsp, serve.Options{}).ServeBatchInto
	if wrap != nil {
		h = wrap(h)
	}
	sh, err := bootShard(testN, h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sh.close)
	return sh, pool, want
}

// A handler that corrupts one answer must be caught: counted wrong,
// counted failed, and the result line must read correct=false.
func TestCorruptAnswerCaught(t *testing.T) {
	var target serve.Query
	sh, pool, want := testSystem(t, func(h netserve.BatchHandlerInto) netserve.BatchHandlerInto {
		return func(qs []serve.Query, out []serve.Result) []serve.Result {
			out = h(qs, out)
			if len(qs) > 3 && qs[0] == target {
				out[3].Len++
			}
			return out
		}
	})
	target = pool[5][0]
	st := openLoop(loopSpec{rate: 40_000, batch: 8, dur: 200 * time.Millisecond, pool: pool, call: sh.call, check: staticChecker(want)})
	if st.requests < int64(len(pool)) {
		t.Fatalf("only %d requests; the corrupted batch was never sent", st.requests)
	}
	if st.wrong < 1 || st.failed < st.wrong {
		t.Fatalf("wrong=%d failed=%d, want the corrupted answer counted as both", st.wrong, st.failed)
	}
	res := newResult()
	res.attempted, res.failed, res.wrong = st.queries, st.failed, st.wrong
	for _, d := range endToEnd {
		res.set(d.name, 1)
	}
	ln, err := res.line(false)
	if err != nil {
		t.Fatal(err)
	}
	if ln.Correct {
		t.Fatal("result line reads correct=true despite a wrong answer")
	}
}

// An honest shard answers every query correctly.
func TestHonestShardClean(t *testing.T) {
	sh, pool, want := testSystem(t, nil)
	st := openLoop(loopSpec{rate: 40_000, batch: 8, dur: 100 * time.Millisecond, pool: pool, call: sh.call, check: staticChecker(want)})
	if st.failed != 0 || st.wrong != 0 {
		t.Fatalf("failed=%d wrong=%d on an honest shard", st.failed, st.wrong)
	}
}

// The traced pass reconciles: every handler span sits inside the client
// span of the same request.
func TestTracedRunReconciles(t *testing.T) {
	tr := newTracer(true)
	hm := &handlerMeter{tr: tr, ids: newInflight(makePool(7, testN, 8, wireSpec.ops))}
	sh, pool, want := testSystem(t, hm.wrap)
	hm.on.Store(true)
	st := openLoop(loopSpec{rate: 40_000, batch: 8, dur: 200 * time.Millisecond, pool: pool, call: sh.call,
		check: staticChecker(want), tr: tr, ids: hm.ids})
	client, handler := tr.byLayer("netserve"), tr.byLayer("serve")
	if int64(len(client)) != st.requests || len(handler) != len(client) {
		t.Fatalf("%d requests, %d client spans, %d handler spans", st.requests, len(client), len(handler))
	}
	selfUS, err := reconcile(client, handler)
	if err != nil {
		t.Fatal(err)
	}
	if len(selfUS) != len(client) {
		t.Fatalf("%d self times for %d requests", len(selfUS), len(client))
	}
}

func TestReconcileRejects(t *testing.T) {
	us := time.Microsecond
	client := []span{{ID: 1, Layer: "netserve", Start: 0, End: 100 * us}}
	for _, c := range []struct {
		name    string
		handler []span
		want    string
	}{
		{"handler outside client", []span{{ID: 1, Start: 50 * us, End: 120 * us}}, "outside client span"},
		{"handler before client", []span{{ID: 1, Start: -5 * us, End: 60 * us}}, "outside client span"},
		{"two handler spans", []span{{ID: 1, Start: 10 * us, End: 20 * us}, {ID: 1, Start: 30 * us, End: 40 * us}}, "two handler spans"},
		{"no handler at all", nil, "no request"},
	} {
		_, err := reconcile(client, c.handler)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
	// The honest case: self time is the client span minus the handler's.
	self, err := reconcile(client, []span{{ID: 1, Start: 10 * us, End: 60 * us}})
	if err != nil || len(self) != 1 || self[0] != 50 {
		t.Fatalf("self = %v, err = %v; want [50]", self, err)
	}
}

func TestSelfTimeUnionsChildren(t *testing.T) {
	p := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 150}, {Start: 200, End: 300}}
	// Covered: [10,40] and [90,100] = 40.
	if got := selfTime(p, kids); got != 60 {
		t.Fatalf("selfTime = %v, want 60", got)
	}
}

// The staircase settles on the rate a step sustains.
func TestFindKneeSettles(t *testing.T) {
	const capacity = 1000.0
	knee, steps := findKnee(300, 0, func(rate float64) kneeStep {
		return kneeStep{rate: rate, pass: rate <= capacity}
	})
	if knee < capacity/1.05 || knee > capacity*1.05 {
		t.Fatalf("knee %.1f, want within 5%% of %.0f (%d steps)", knee, capacity, len(steps))
	}
}

// A response is right if it matches a generation live while it was in
// flight, and wrong if it matches only a generation retired before the
// request was sent.
func TestChurnVerifyUsesLiveGenerations(t *testing.T) {
	g, err := gen.ByName("random", testN, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	apsp := shortest.NewAPSP(g)
	ts, err := table.New(g, apsp, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := schemeio.Encode(g, ts)
	if err != nil {
		t.Fatal(err)
	}
	gs := g.Clone()
	s, err := schemeio.Decode(enc.Bytes, gs)
	if err != nil {
		t.Fatal(err)
	}
	first := s.(*table.Scheme)
	p := &faultPipe{seed: 3, g: g, apsp: apsp, ts: ts, hot: serve.NewHot(serve.New(gs, first, nil, serve.Options{}))}
	t0 := time.Now()
	p.gens = []*generation{{seq: 1, g: gs, s: first, from: t0}}
	pool := makePool(3, testN, 1, churnSpec.ops)
	// Kill edges until some pooled query's answer changes.
	pi := -1
	for k := 0; k < 20 && pi < 0; k++ {
		if _, err := p.runCycle(); err != nil {
			t.Fatal(err)
		}
		last := p.gens[len(p.gens)-1]
		old := serialAnswers(gs, first, nil, pool)
		now := serialAnswers(last.g, last.s, nil, pool)
		for i := range pool {
			if f, _ := compareBatch(old[i], now[i]); f != 0 && old[i][0].Err == nil {
				pi = i
				break
			}
		}
	}
	if pi < 0 {
		t.Skip("no pooled answer changed within 20 edge kills")
	}
	stale := serialAnswers(gs, first, nil, pool)[pi]
	inFlight := newRecorder(1)
	inFlight.check(pi, t0, p.gens[0].till, stale)
	// Sent after the last swap: only the newest generation was live.
	now := time.Now()
	late := newRecorder(1)
	late.check(pi, now, now.Add(time.Millisecond), stale)
	if w, err := p.verify(pool, inFlight); err != nil || w != 0 {
		t.Fatalf("answer from a generation live in flight counted wrong (%d, %v)", w, err)
	}
	if w, err := p.verify(pool, late); err != nil || w != 1 {
		t.Fatalf("answer from a retired generation: %d wrong (%v), want 1", w, err)
	}
	// A generation released by later cycles is rebuilt from the deltas:
	// its answers, sent after it was installed and back before the next
	// one was, match only it.
	mid := p.gens[len(p.gens)-1]
	midAnswers := serialAnswers(mid.g, mid.s, nil, pool)
	for k := 0; k < 2; k++ {
		if _, err := p.runCycle(); err != nil {
			t.Fatal(err)
		}
	}
	if mid.g != nil {
		t.Fatal("a swapped-out generation kept its graph")
	}
	prev, next := p.gens[len(p.gens)-4], p.gens[len(p.gens)-2]
	released := newRecorder(len(pool))
	for i := range pool {
		released.check(i, prev.till.Add(time.Nanosecond), next.from.Add(-time.Nanosecond), midAnswers[i])
	}
	if w, err := p.verify(pool, released); err != nil || w != 0 {
		t.Fatalf("answers of a replayed generation: %d wrong (%v), want 0", w, err)
	}
	if err := p.checkWriter(pool); err != nil {
		t.Fatal(err)
	}
}
