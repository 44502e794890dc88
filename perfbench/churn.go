package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/scheme/table"
	"repro/internal/schemeio"
	"repro/internal/serve"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// churnSpec: route+len queries at batch 1 against a tables scheme on
// random n=1024 while a background loop kills one edge per cycle and
// hot-swaps the repaired generation in. Its tail is p99.9. The requests
// that wait behind repair work are the ~6% due while a garbage
// collection runs beside a fault cycle (with GOGC=off they are gone):
// most likely the writer and a mark worker then hold both processors and
// the foreground runs only when the runtime preempts one, every 10-14 ms, so those requests' latencies
// spread evenly up to that interval. p99 lands inside that spread and
// moves with the share of requests caught (IQR over median 0.08-0.14
// across ten seeds on a 2-core x86-64 VM; 0.25 on a busier host). p99.9
// lands at its top, the length of a stall (0.04-0.07 on the same runs),
// and still falls once stalls become rare. p99 is printed as
// info.p99_us.
//
// rate is not half the knee. churn-knee put the knee (p99 limit 20 ms)
// at 114k and 138k q/s on a 2-core x86-64 VM, but at 60k q/s p50 split
// between runs into two modes (9 and 13.5 us; spread 0.33 over ten
// seeds) and at 30k q/s p99 did (2.5 and 10 ms). At 4k q/s p50 had one
// mode and p99 sat at 10 ms in 19 of 20 runs. See README.md, "Why
// churn's rate is not half its knee".
var churnSpec = servingSpec{name: "churn", n: 1024, batch: 1, ops: []serve.Op{serve.OpRoute, serve.OpLen}, rate: 4000, limitUS: 20_000, tailQ: 0.999}

// churnCycles is the number of fault cycles per measured window: at
// least 100, so the p90 swap time has ten samples beyond it.
const churnCycles = 120

// generation is one served scheme generation and the interval in which
// it was live: from just before the Swap that installed it to just after
// the Swap that replaced it. Only the base and the served generation keep
// their graph and scheme: a shard drops a generation once it is swapped
// out, and keeping all of them would grow the heap by a full table per
// cycle and put the harness's garbage collection into the foreground's
// tail. verify rebuilds the others from the base by replaying each
// generation's encoded delta.
type generation struct {
	seq        uint64
	delta      []byte // encoded delta from the previous generation; nil for the base
	g          *graph.Graph
	s          *table.Scheme
	from, till time.Time
}

// faultPipe is churn's writer and serving state. The writer owns the
// faulted graph, the hop table and the tables scheme it repairs in
// place; the serving side only ever sees generations rebuilt from
// encoded deltas.
type faultPipe struct {
	seed uint64
	g    *graph.Graph
	apsp *shortest.APSP
	ts   *table.Scheme
	hot  *serve.HotServer
	tr   *tracer

	mu   sync.Mutex
	gens []*generation

	cycle      int
	swapMS     []float64
	dirtyRows  []float64
	changed    []float64
	deltaBytes []float64
}

func buildChurn(cfg runConfig, id uint64, tr *tracer, hm *handlerMeter) (*system, func() [][]serve.Result, error) {
	spec := churnSpec
	p := &faultPipe{seed: cfg.seed, tr: tr}
	var enc *schemeio.Encoded
	var gs *graph.Graph
	var first *table.Scheme
	stages := []stage{
		{"gen", func() (err error) { p.g, err = gen.ByName("random", spec.n, xrand.New(cfg.seed)); return err }},
		{"shortest.apsp", func() error { p.apsp = shortest.NewAPSP(p.g); return nil }},
		{"table.build", func() (err error) { p.ts, err = table.New(p.g, p.apsp, table.MinPort); return err }},
		{"schemeio.encode", func() (err error) { enc, err = schemeio.Encode(p.g, p.ts); return err }},
		// The serving side starts from the encoded base generation on its
		// own copy of the graph, as a shard loading a container would.
		{"schemeio.decode", func() error {
			gs = p.g.Clone()
			s, err := schemeio.Decode(enc.Bytes, gs)
			if err != nil {
				return err
			}
			var ok bool
			if first, ok = s.(*table.Scheme); !ok {
				return fmt.Errorf("decoded %s, want a table scheme", s.Name())
			}
			return nil
		}},
	}
	if err := tr.runStages(id, "setup", stages); err != nil {
		return nil, nil, err
	}
	p.hot = serve.NewHot(serve.New(gs, first, nil, serve.Options{}))
	p.gens = []*generation{{seq: p.hot.Generation(), g: gs, s: first, from: time.Now()}}
	hot := p.hot
	sh, err := bootServing(id, tr, hm, spec, func(qs []serve.Query, out []serve.Result) []serve.Result {
		rs, _ := hot.ServeBatchInto(qs, out)
		return rs
	})
	if err != nil {
		return nil, nil, err
	}
	sys := &system{shard: sh, fault: p, close: sh.close}
	reference := func() [][]serve.Result {
		return serialAnswers(gs, first, nil, makePool(cfg.seed, spec.n, spec.batch, spec.ops))
	}
	return sys, reference, nil
}

// runCycle kills one edge and serves the repaired generation. It
// returns the time from the kill to the new generation being served.
func (p *faultPipe) runCycle() (time.Duration, error) {
	k := p.cycle
	p.cycle++
	id := uint64(k)
	plan, err := faults.NewPlan(p.g, faults.Options{
		Mode: faults.KillEdges, Count: 1, KeepConnected: true,
		Seed: p.seed ^ uint64(k+1)*0x9e3779b97f4a7c15,
	})
	if err != nil {
		return 0, err
	}
	if len(plan.Edges) != 1 {
		return 0, fmt.Errorf("cycle %d: plan removes %d edges, want 1", k, len(plan.Edges))
	}
	p.mu.Lock()
	cur := p.gens[len(p.gens)-1]
	p.mu.Unlock()
	var dirty, changed []graph.NodeID
	var blob []byte
	var d *schemeio.Delta
	var ng *graph.Graph
	var ns *table.Scheme
	var sv *serve.Server
	var from time.Time
	start := time.Now()
	stages := []stage{
		{"faults.dirty", func() error {
			for _, e := range plan.Edges {
				p.g.RemoveEdge(e[0], e[1])
			}
			p.g.Freeze()
			dirty = faults.DirtyRoots(p.apsp, plan.Edges)
			return nil
		}},
		{"shortest.refresh", func() error { p.apsp.RefreshRows(p.g, dirty); return nil }},
		{"table.repair", func() (err error) { changed, err = p.ts.Repair(p.apsp, dirty, table.MinPort); return err }},
		{"schemeio.delta_encode", func() error {
			wd, err := schemeio.NewDelta(cur.seq, plan.Edges, p.ts, changed)
			if err != nil {
				return err
			}
			blob, err = schemeio.EncodeDelta(p.g, wd)
			return err
		}},
		{"schemeio.delta_decode", func() (err error) { d, err = schemeio.DecodeDelta(blob, cur.g); return err }},
		{"schemeio.delta_apply", func() (err error) { ng, ns, err = schemeio.ApplyDelta(cur.g, cur.s, d); return err }},
		{"serve.swap", func() error {
			sv = serve.New(ng, ns, nil, serve.Options{})
			from = time.Now()
			p.hot.Swap(sv)
			return nil
		}},
	}
	if err := p.tr.runStages(id, "pipeline", stages); err != nil {
		return 0, fmt.Errorf("cycle %d: %w", k, err)
	}
	lat := time.Since(start)
	live := time.Now()
	p.mu.Lock()
	cur.till = live
	if cur != p.gens[0] {
		cur.g, cur.s = nil, nil
	}
	p.gens = append(p.gens, &generation{seq: d.NewGen(), delta: blob, g: ng, s: ns, from: from})
	p.mu.Unlock()
	p.swapMS = append(p.swapMS, durMS(lat))
	p.dirtyRows = append(p.dirtyRows, float64(len(dirty)))
	p.changed = append(p.changed, float64(len(changed)))
	p.deltaBytes = append(p.deltaBytes, float64(len(blob)))
	return lat, nil
}

// runCycles runs n cycles spread evenly over window, one starting every
// window/n (immediately when the previous one overran its slot).
func (p *faultPipe) runCycles(n int, window time.Duration) error {
	pc := newPacer()
	defer pc.close()
	start := time.Now()
	for k := 0; k < n; k++ {
		pc.waitUntil(start.Add(time.Duration(k) * window / time.Duration(n)))
		if _, err := p.runCycle(); err != nil {
			return err
		}
	}
	return nil
}

// response is one answered foreground request, kept for checking
// against the generations live while it was in flight. sent and done are
// offsets from the recorder's epoch; the answers are kept as
// fingerprints, from sums[at] on.
type response struct {
	pi, n      int32
	at         int
	sent, done time.Duration
}

// recorder is churn's checker: it keeps a fingerprint of every answer
// (churn-knee records millions, too many to copy whole) and counts
// errors; wrong answers are found after the window by verify.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	resp  []response
	sums  []uint64 // 0: the query failed (counted when it came back)
}

// newRecorder sizes the recorder for about want answered queries.
func newRecorder(want int) *recorder {
	return &recorder{epoch: time.Now(), resp: make([]response, 0, want), sums: make([]uint64, 0, want)}
}

func (rc *recorder) check(pi int, sent, done time.Time, got []serve.Result) (int, int) {
	failed := 0
	rc.mu.Lock()
	rc.resp = append(rc.resp, response{pi: int32(pi), n: int32(len(got)), at: len(rc.sums), sent: sent.Sub(rc.epoch), done: done.Sub(rc.epoch)})
	for _, r := range got {
		sum := uint64(0)
		if r.Err != nil {
			failed++
		} else {
			sum = fingerprint(r)
		}
		rc.sums = append(rc.sums, sum)
	}
	rc.mu.Unlock()
	return failed, 0
}

// fingerprint is a 64-bit FNV-1a digest of an answer (length, distance,
// stretch and every hop), never 0. Two different answers share one
// with probability about 2^-64.
func fingerprint(r serve.Result) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(uint64(r.Len))
	mix(uint64(uint32(r.Dist)))
	mix(math.Float64bits(r.Stretch))
	mix(uint64(len(r.Hops)))
	for _, hp := range r.Hops {
		mix(uint64(hp.Node))
		mix(uint64(hp.Port))
	}
	return h | 1
}

// verify checks every recorded answer against the serial answers of the
// generations live while its request was in flight; it returns the
// number of wrong answers (answered queries matching no such
// generation). It walks the generations in order, rebuilding each
// released one from its predecessor and its delta, and checks each
// response against every generation in its live range.
func (p *faultPipe) verify(pool [][]serve.Query, rc *recorder) (int64, error) {
	p.mu.Lock()
	gens := append([]*generation(nil), p.gens...)
	p.mu.Unlock()
	// Each response may match the generations lo..hi: those not retired
	// before it was sent and installed before it came back.
	type span struct{ r, lo, hi int }
	spans := make([]span, len(rc.resp))
	for i, r := range rc.resp {
		sent, done := rc.epoch.Add(r.sent), rc.epoch.Add(r.done)
		lo := sort.Search(len(gens), func(i int) bool { return gens[i].till.IsZero() || !gens[i].till.Before(sent) })
		hi := sort.Search(len(gens), func(i int) bool { return gens[i].from.After(done) }) - 1
		spans[i] = span{i, lo, hi}
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].lo < spans[b].lo })
	matched := make([]bool, len(rc.sums))
	var wrong int64
	retire := func(sp span) {
		r := rc.resp[sp.r]
		for i := r.at; i < r.at+int(r.n); i++ {
			if rc.sums[i] != 0 && !matched[i] {
				wrong++
			}
		}
	}
	var active []span
	next := 0
	g, s := gens[0].g, gens[0].s
	for gi := 0; gi < len(gens) && (next < len(spans) || len(active) > 0); gi++ {
		if gi > 0 {
			if gens[gi].g != nil {
				g, s = gens[gi].g, gens[gi].s
			} else {
				d, err := schemeio.DecodeDelta(gens[gi].delta, g)
				if err != nil {
					return 0, fmt.Errorf("replaying generation %d: %w", gens[gi].seq, err)
				}
				if g, s, err = schemeio.ApplyDelta(g, s, d); err != nil {
					return 0, fmt.Errorf("replaying generation %d: %w", gens[gi].seq, err)
				}
			}
		}
		for ; next < len(spans) && spans[next].lo <= gi; next++ {
			active = append(active, spans[next])
		}
		if len(active) == 0 {
			continue
		}
		ref := serve.New(g, s, nil, serve.Options{Workers: 1})
		want := map[int][]uint64{}
		kept := active[:0]
		for _, sp := range active {
			r := rc.resp[sp.r]
			if gi <= sp.hi {
				w, seen := want[int(r.pi)]
				if !seen {
					for _, a := range ref.ServeBatch(pool[r.pi]) {
						sum := uint64(0)
						if a.Err == nil {
							sum = fingerprint(a)
						}
						w = append(w, sum)
					}
					want[int(r.pi)] = w
				}
				for i := 0; i < int(r.n); i++ {
					if w[i] == rc.sums[r.at+i] {
						matched[r.at+i] = true
					}
				}
			}
			if gi >= sp.hi {
				retire(sp)
			} else {
				kept = append(kept, sp)
			}
		}
		active = kept
	}
	return wrong, nil
}

// checkWriter confirms the delta chain: the last served generation
// answers the pool exactly as the writer's in-place repaired scheme.
func (p *faultPipe) checkWriter(pool [][]serve.Query) error {
	p.mu.Lock()
	last := p.gens[len(p.gens)-1]
	p.mu.Unlock()
	served := serialAnswers(last.g, last.s, nil, pool)
	writer := serialAnswers(p.g, p.ts, nil, pool)
	for i := range pool {
		if f, _ := compareBatch(writer[i], served[i]); f != 0 {
			return fmt.Errorf("generation %d diverged from the writer's repaired scheme", last.seq)
		}
	}
	return nil
}

func churn(cfg runConfig) (*result, error) {
	spec := churnSpec
	res := newResult()
	tr := newTracer(cfg.traced)
	pool := makePool(cfg.seed, spec.n, spec.batch, spec.ops)
	var hm *handlerMeter
	if tr != nil {
		hm = &handlerMeter{tr: tr, ids: newInflight(pool)}
	}
	sys, setupTimes, heap, err := setUp(cfg, tr, hm, buildChurn)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	p := sys.fault

	noop := func(pi int, _ []serve.Query, _ []serve.Result) []serve.Result { return sys.want[pi] }
	floor := openLoop(loopSpec{rate: spec.rate, batch: spec.batch, dur: share(cfg, floorShare), pool: pool,
		call: noop, check: staticChecker(sys.want)})
	floorUS := quantile(sortedCopy(floor.latUS), 0.5)

	// window runs the foreground open loop and the fault loop together.
	window := func(dur time.Duration, traced bool) (loopStats, error) {
		rc := newRecorder(int(spec.rate * dur.Seconds()))
		sp := loopSpec{rate: spec.rate, batch: spec.batch, dur: dur, pool: pool, call: sys.shard.call, check: rc.check}
		if traced {
			sp.tr, sp.ids = tr, hm.ids
		}
		var cycErr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			cycErr = p.runCycles(churnCycles, dur)
		}()
		st := openLoop(sp)
		<-done
		if cycErr != nil {
			return st, cycErr
		}
		wrong, err := p.verify(pool, rc)
		if err != nil {
			return st, err
		}
		st.failed += wrong
		st.wrong += wrong
		res.attempted += st.queries
		res.failed += st.failed
		res.wrong += st.wrong
		return st, nil
	}

	if !cfg.traced {
		st, err := window(share(cfg, wholeShare), false)
		if err != nil {
			return nil, err
		}
		if err := p.checkWriter(pool); err != nil {
			return nil, err
		}
		total := 0.0
		for _, ms := range p.swapMS {
			total += ms
		}
		res.set("throughput", 1000*float64(len(p.swapMS))/total)
		setLatency(res, spec, st, floorUS)
		res.set("setup_s", median(setupTimes))
		res.set("heap_mb", heap)
		swaps := sortedCopy(p.swapMS)
		res.set("info.swap_p50_ms", quantile(swaps, 0.5))
		res.set("info.swap_p90_ms", quantile(swaps, 0.9))
		return res, nil
	}

	res.zeroLayers()
	setupLayers(res, tr)
	plain, err := window(share(cfg, wholeShare/2), false)
	if err != nil {
		return nil, err
	}
	// Only the traced window's cycles feed the pipeline metrics.
	p.swapMS, p.dirtyRows, p.changed, p.deltaBytes = nil, nil, nil, nil
	firstTraced := uint64(p.cycle)
	hm.on.Store(true)
	traced, err := window(share(cfg, wholeShare/2), true)
	hm.on.Store(false)
	if err != nil {
		return nil, err
	}
	if err := p.checkWriter(pool); err != nil {
		return nil, err
	}
	if err := servingLayers(res, tr, sys, pool, floor, floorUS, plain, traced); err != nil {
		return nil, err
	}
	for layer, metric := range map[string]string{
		"faults.dirty":          "faults.dirty_ms",
		"shortest.refresh":      "shortest.refresh_ms",
		"table.repair":          "table.repair_ms",
		"schemeio.delta_encode": "schemeio.delta_encode_ms",
		"schemeio.delta_decode": "schemeio.delta_decode_ms",
		"schemeio.delta_apply":  "schemeio.delta_apply_ms",
	} {
		var ds []float64
		for _, s := range tr.byLayer(layer) {
			if s.ID >= firstTraced {
				ds = append(ds, durMS(s.dur()))
			}
		}
		res.set(metric, median(ds))
	}
	var swapUS []float64
	for _, s := range tr.byLayer("serve.swap") {
		if s.ID >= firstTraced {
			swapUS = append(swapUS, durUS(s.dur()))
		}
	}
	res.set("serve.swap_us", median(swapUS))
	res.set("faults.dirty_rows", median(p.dirtyRows))
	res.set("table.changed_rows", median(p.changed))
	var changed, dirty float64
	for i := range p.changed {
		changed += p.changed[i]
		dirty += p.dirtyRows[i]
	}
	if dirty > 0 {
		res.set("table.changed_per_dirty", changed/dirty)
	}
	res.set("schemeio.delta_bytes", median(p.deltaBytes))
	swaps := sortedCopy(p.swapMS)
	res.set("pipeline.swap_p50_ms", quantile(swaps, 0.5))
	res.set("pipeline.swap_p90_ms", quantile(swaps, 0.9))
	if err := tr.write(filepath.Join(cfg.dir, fmt.Sprintf("spans-churn-seed%d.jsonl", cfg.seed))); err != nil {
		return nil, err
	}
	return res, nil
}

// runChurnKnee is the "churn-knee" subcommand. It finds the knee of
// churn's foreground with the fault loop running at the density of a
// measured run (churnCycles over the window of a --seconds run), and
// prints the staircase. It was run once to choose churnSpec.rate; run it
// again only to re-derive that constant on other hardware.
func runChurnKnee(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench churn-knee", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 25, "length of the run whose fault density is reproduced")
	budget := fs.Duration("budget", time.Minute, "how long the staircase runs")
	from := fs.Float64("from", churnSpec.rate, "offered rate of the first step, queries/s")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || *budget <= 0 || *from <= 0 {
		fmt.Fprintln(stderr, "perfbench churn-knee: need --seconds >= 1, --budget > 0 and --from > 0")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, dir: workDir()}
	knee, err := churnKnee(cfg, *budget, *from, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench churn-knee: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "knee %.0f q/s (p99 limit %.0fus); half the knee: %.0f q/s\n", knee, churnSpec.limitUS, knee/2)
	return 0
}

func churnKnee(cfg runConfig, budget time.Duration, from float64, w io.Writer) (float64, error) {
	spec := churnSpec
	pool := makePool(cfg.seed, spec.n, spec.batch, spec.ops)
	sys, _, _, err := setUp(cfg, nil, nil, buildChurn)
	if err != nil {
		return 0, err
	}
	defer sys.close()
	p := sys.fault
	// As many cycles as fit in budget at a measured run's density.
	cycles := int(float64(churnCycles) * float64(budget) / float64(share(cfg, wholeShare)))
	var cycErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		cycErr = p.runCycles(cycles, budget)
	}()
	rc := newRecorder(0)
	base := loopSpec{batch: spec.batch, pool: pool, call: sys.shard.call, check: rc.check, dur: share(cfg, stepShare)}
	knee, steps := findKnee(from, budget, func(rate float64) kneeStep {
		sp := base
		sp.rate = rate
		return sustains(openLoop(sp), rate, spec.limitUS)
	})
	<-done
	if cycErr != nil {
		return 0, cycErr
	}
	for _, s := range steps {
		fmt.Fprintf(w, "  knee step: offered %.0f/s achieved %.0f/s p99 %.0fus queue %.0fus pass=%v\n",
			s.rate, s.achieved, s.p99US, s.queueUS, s.pass)
	}
	fmt.Fprintf(w, "%d fault cycles ran beside the staircase\n", p.cycle)
	if wrong, err := p.verify(pool, rc); err != nil {
		return 0, err
	} else if wrong > 0 {
		return 0, fmt.Errorf("%d wrong answers", wrong)
	}
	if knee == 0 {
		return 0, fmt.Errorf("no offered rate down to %.0f/s met the knee rule", from/64)
	}
	return knee, nil
}
