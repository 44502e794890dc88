package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/evaluate"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/netserve"
	"repro/internal/routing"
	"repro/internal/scheme/landmark"
	"repro/internal/scheme/table"
	"repro/internal/schemeio"
	"repro/internal/serve"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// setupReps is how many times a run builds its system from the seed;
// setup_s is the median. The last build is the one measured.
const setupReps = 21

// poolSize is the number of distinct pre-built batches a serving run
// cycles through.
const poolSize = 256

// servingSpec fixes one serving workload. rate, limitUS and tailQ are
// constants later commits are measured under: rate is about half the
// knee measured on a 2-core x86-64 VM, limitUS the p99 bound of the knee
// rule, tailQ the quantile tail_us reports.
type servingSpec struct {
	name    string
	n       int
	batch   int
	ops     []serve.Op
	rate    float64 // fixed offered rate, queries/s
	limitUS float64 // p99 limit for the knee
	tailQ   float64
}

// The serving tails are p90: on a shared 2-core VM the p99 of these
// workloads is set by millisecond stalls of the host, and its spread
// across runs exceeds any usable bound. churn is the exception (see
// churnSpec).
var (
	wireSpec = servingSpec{name: "serve-wire", n: 2048, batch: 64, ops: []serve.Op{serve.OpRoute, serve.OpLen, serve.OpStretch},
		rate: 300_000, limitUS: 5000, tailQ: 0.90}
	rowsSpec = servingSpec{name: "serve-rows", n: 2048, batch: 64, ops: []serve.Op{serve.OpStretch},
		rate: 30_000, limitUS: 10_000, tailQ: 0.90}
)

// makePool draws the seeded query pool. Sources and destinations are
// uniform with u != v; ops cycle through the batch positions. The first
// query of every batch is unique across the pool (the traced handler
// identifies batches by it).
func makePool(seed uint64, n, batch int, ops []serve.Op) [][]serve.Query {
	r := xrand.New(seed ^ 0x70657266) // "perf": keep the pool stream apart from the graph stream
	seen := map[serve.Query]bool{}
	pool := make([][]serve.Query, poolSize)
	for b := range pool {
		qs := make([]serve.Query, batch)
		for i := range qs {
			for {
				u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
				if u == v {
					continue
				}
				qs[i] = serve.Query{Op: ops[(b*batch+i)%len(ops)], U: u, V: v}
				if i > 0 || !seen[qs[0]] {
					break
				}
			}
		}
		seen[qs[0]] = true
		pool[b] = qs
	}
	return pool
}

// sameResult reports whether two answers are identical: the fields the
// wire carries, with stretch compared bit for bit.
func sameResult(a, b serve.Result) bool {
	if (a.Err == nil) != (b.Err == nil) {
		return false
	}
	if a.Err != nil {
		return a.Err.Error() == b.Err.Error()
	}
	if a.Len != b.Len || a.Dist != b.Dist || math.Float64bits(a.Stretch) != math.Float64bits(b.Stretch) || len(a.Hops) != len(b.Hops) {
		return false
	}
	for i := range a.Hops {
		if a.Hops[i] != b.Hops[i] {
			return false
		}
	}
	return true
}

// compareBatch counts failed and wrong answers against want: an error
// where the reference answered is a failure; a different answer is a
// wrong answer (and a failure).
func compareBatch(want, got []serve.Result) (failed, wrong int) {
	if len(got) != len(want) {
		return len(want), len(want)
	}
	for i := range want {
		if sameResult(want[i], got[i]) {
			continue
		}
		failed++
		if got[i].Err == nil || want[i].Err != nil {
			wrong++
		}
	}
	return failed, wrong
}

// staticChecker compares each response with the serial reference
// answers of its pooled batch.
func staticChecker(want [][]serve.Result) checker {
	return func(pi int, _, _ time.Time, got []serve.Result) (int, int) {
		return compareBatch(want[pi], got)
	}
}

// serialAnswers is the reference: a one-worker serve.Server over the
// given scheme and distances, answering every pooled batch.
func serialAnswers(g *graph.Graph, fn routing.Function, src shortest.DistanceSource, pool [][]serve.Query) [][]serve.Result {
	ref := serve.New(g, fn, src, serve.Options{Workers: 1})
	want := make([][]serve.Result, len(pool))
	for i, qs := range pool {
		want[i] = ref.ServeBatch(qs)
	}
	return want
}

// shard is a booted one-shard loopback service and its client.
type shard struct {
	n       int
	group   *netserve.Group
	cluster *netserve.Cluster
}

// bootShard starts one netserve shard over h and dials it, with the
// program's default options.
func bootShard(n int, h netserve.BatchHandlerInto) (*shard, error) {
	group, err := netserve.ListenGroupInto(1, func(int) netserve.BatchHandlerInto { return h }, netserve.Options{})
	if err != nil {
		return nil, err
	}
	cluster, err := netserve.DialCluster(group.Addrs(), n, netserve.ClusterOptions{})
	if err != nil {
		group.Close()
		return nil, err
	}
	return &shard{n: n, group: group, cluster: cluster}, nil
}

// redial replaces the client's connections with fresh ones.
func (s *shard) redial() error {
	cluster, err := netserve.DialCluster(s.group.Addrs(), s.n, netserve.ClusterOptions{})
	if err != nil {
		return err
	}
	s.cluster.Close()
	s.cluster = cluster
	return nil
}

func (s *shard) close() {
	s.cluster.Close()
	s.group.Close()
}

// firstAnswer sends one query and requires an answer: the end of
// set-up.
func (s *shard) firstAnswer(q serve.Query) error {
	rs := s.cluster.ServeBatch([]serve.Query{q})
	if len(rs) != 1 {
		return fmt.Errorf("first query: %d answers", len(rs))
	}
	return rs[0].Err
}

func (s *shard) call(_ int, qs []serve.Query, out []serve.Result) []serve.Result {
	return s.cluster.ServeBatchInto(qs, out)
}

// system is one set-up serving workload, ready to answer.
type system struct {
	shard *shard
	want  [][]serve.Result // serial reference answers per pooled batch
	rows  *rowMeter        // nil when the server has no distance source
	fault *faultPipe       // churn only

	containerBytes int // serve-wire: size of the container file
	close          func()
}

// buildFunc builds the system once from the seed, recording set-up
// spans under id; it returns the system and, separately, a function
// that computes the reference answers (outside the timed region).
type buildFunc func(cfg runConfig, id uint64, tr *tracer, hm *handlerMeter) (*system, func() [][]serve.Result, error)

// setUp builds the system setupReps times and keeps the last one. It
// returns the set-up times in seconds and the live heap after set-up.
func setUp(cfg runConfig, tr *tracer, hm *handlerMeter, build buildFunc) (*system, []float64, float64, error) {
	var times []float64
	var sys *system
	var reference func() [][]serve.Result
	for rep := 0; rep < setupReps; rep++ {
		if sys != nil {
			sys.close()
			sys, reference = nil, nil
		}
		runtime.GC() // start every repetition from the same heap state
		start := time.Now()
		s, ref, err := build(cfg, uint64(rep), tr, hm)
		if err != nil {
			return nil, nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		sys, reference = s, ref
	}
	sys.want = reference()
	reference = nil
	heap := liveHeapMiB()
	return sys, times, heap, nil
}

// liveHeapMiB forces a collection and reads the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// buildWire is serve-wire's set-up: the routeserve -save then -mmap
// path. It generates the graph, builds the dense hop table and the
// tables scheme, encodes it, writes a container v2 file, opens it
// mapped, touches every router once (so every lazy stripe is decoded
// before measuring), and boots one shard that serves stretch from the
// dense table.
func buildWire(cfg runConfig, id uint64, tr *tracer, hm *handlerMeter) (*system, func() [][]serve.Result, error) {
	spec := wireSpec
	var g *graph.Graph
	var apsp *shortest.APSP
	var ts *table.Scheme
	var enc *schemeio.Encoded
	var m *schemeio.Mapped
	path := filepath.Join(cfg.dir, fmt.Sprintf("serve-wire-%d.rsf2", os.Getpid()))
	stages := []stage{
		{"gen", func() (err error) { g, err = gen.ByName("random", spec.n, xrand.New(cfg.seed)); return err }},
		{"shortest.apsp", func() error { apsp = shortest.NewAPSP(g); return nil }},
		{"table.build", func() (err error) { ts, err = table.New(g, apsp, table.MinPort); return err }},
		{"schemeio.encode", func() (err error) { enc, err = schemeio.Encode(g, ts); return err }},
		{"schemeio.write", func() error { return writeContainer(path, g, enc) }},
		{"schemeio.open", func() (err error) { m, err = schemeio.OpenMapped(path); return err }},
		{"schemeio.first_touch", func() error { return touchRouters(m.Graph(), m.Scheme()) }},
	}
	if err := tr.runStages(id, "setup", stages); err != nil {
		if m != nil {
			m.Close()
		}
		return nil, nil, err
	}
	var src shortest.DistanceSource = apsp
	var rows *rowMeter
	if tr != nil {
		src, rows = meterRows(apsp, tr, false)
	}
	sv := serve.New(m.Graph(), m.Scheme(), src, serve.Options{})
	sh, err := bootServing(id, tr, hm, spec, sv.ServeBatchInto)
	if err != nil {
		m.Close()
		return nil, nil, err
	}
	sys := &system{shard: sh, rows: rows, containerBytes: len(enc.Bytes), close: func() {
		sh.close()
		m.Close()
		os.Remove(path)
	}}
	reference := func() [][]serve.Result {
		// The reference is the heap-built scheme on the generated
		// graph: it checks persistence, mapping and the wire at once.
		return serialAnswers(g, ts, apsp, makePool(cfg.seed, spec.n, spec.batch, spec.ops))
	}
	return sys, reference, nil
}

func writeContainer(path string, g *graph.Graph, enc *schemeio.Encoded) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := schemeio.WriteFileV2Encoded(f, g, enc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// touchRouters asks every router for one port decision, which decodes
// every lazy stripe of a mapped scheme.
func touchRouters(g *graph.Graph, fn routing.Function) error {
	n := graph.NodeID(g.Order())
	for x := graph.NodeID(0); x < n; x++ {
		if p := fn.Port(x, fn.Init(x, (x+1)%n)); p == graph.NoPort {
			return fmt.Errorf("router %d has no port towards %d", x, (x+1)%n)
		}
	}
	return nil
}

// bootServing starts the shard (its handler metered when traced) and
// waits for the first answer.
func bootServing(id uint64, tr *tracer, hm *handlerMeter, spec servingSpec, h netserve.BatchHandlerInto) (*shard, error) {
	if hm != nil {
		h = hm.wrap(h)
	}
	var sh *shard
	err := tr.record(id, "netserve.boot", "setup", func() (err error) {
		if sh, err = bootShard(spec.n, h); err != nil {
			return err
		}
		return sh.firstAnswer(serve.Query{Op: spec.ops[0], U: 0, V: graph.NodeID(spec.n - 1)})
	})
	if err != nil && sh != nil {
		sh.close()
	}
	return sh, err
}

// buildRows is serve-rows' set-up: a landmark scheme built from
// streamed BFS rows, served with the stream distance backend, so every
// stretch query computes one BFS row.
func buildRows(cfg runConfig, id uint64, tr *tracer, hm *handlerMeter) (*system, func() [][]serve.Result, error) {
	spec := rowsSpec
	var g *graph.Graph
	var s *landmark.Scheme
	var src shortest.DistanceSource
	stages := []stage{
		{"gen", func() (err error) { g, err = gen.ByName("random", spec.n, xrand.New(cfg.seed)); return err }},
		{"landmark.build", func() (err error) { s, err = landmark.NewStreamed(g, landmark.Options{Seed: cfg.seed}, 0); return err }},
		{"shortest.source", func() (err error) {
			src, err = evaluate.Options{DistMode: evaluate.DistStream}.Source(g, nil)
			return err
		}},
	}
	if err := tr.runStages(id, "setup", stages); err != nil {
		return nil, nil, err
	}
	var rows *rowMeter
	if tr != nil {
		src, rows = meterRows(src, tr, false)
	}
	sv := serve.New(g, s, src, serve.Options{})
	sh, err := bootServing(id, tr, hm, spec, sv.ServeBatchInto)
	if err != nil {
		return nil, nil, err
	}
	sys := &system{shard: sh, rows: rows, close: sh.close}
	reference := func() [][]serve.Result {
		// Dense distances for the reference: the stream backend's rows
		// are checked against the n^2 table.
		return serialAnswers(g, s, shortest.NewAPSP(g), makePool(cfg.seed, spec.n, spec.batch, spec.ops))
	}
	return sys, reference, nil
}

func serveWire(cfg runConfig) (*result, error) { return runServing(cfg, wireSpec, buildWire) }
func serveRows(cfg runConfig) (*result, error) { return runServing(cfg, rowsSpec, buildRows) }

// Phase lengths as shares of --seconds.
const (
	floorShare = 0.03 // no-op transport calibration
	kneeShare  = 0.40 // the knee staircase
	stepShare  = 0.01 // one knee step
	minRamps   = 3    // knee ramps at least
	fixedShare = 0.50 // the fixed-rate window
	wholeShare = 0.90 // the measured window of a workload without a knee
)

// runServing measures one serving workload: set-up, the harness floor,
// the knee (untraced) and the fixed-rate window. A traced run replaces
// the knee with an untraced and a traced half of the fixed window.
func runServing(cfg runConfig, spec servingSpec, build buildFunc) (*result, error) {
	res := newResult()
	tr := newTracer(cfg.traced)
	pool := makePool(cfg.seed, spec.n, spec.batch, spec.ops)
	var hm *handlerMeter
	if tr != nil {
		hm = &handlerMeter{tr: tr, ids: newInflight(pool)}
	}
	sys, setupTimes, heap, err := setUp(cfg, tr, hm, build)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	check := staticChecker(sys.want)

	// Floor: the same loop, schedule and answer checks with a transport
	// that returns the reference answers without doing anything.
	noop := func(pi int, _ []serve.Query, _ []serve.Result) []serve.Result { return sys.want[pi] }
	floor := openLoop(loopSpec{rate: spec.rate, batch: spec.batch, dur: share(cfg, floorShare), pool: pool, call: noop, check: check})
	floorUS := quantile(sortedCopy(floor.latUS), 0.5)

	base := loopSpec{rate: spec.rate, batch: spec.batch, pool: pool, call: sys.shard.call, check: check}
	tally := func(st loopStats) {
		res.attempted += st.queries
		res.failed += st.failed
		res.wrong += st.wrong
	}
	if !cfg.traced {
		knee, steps := findKnee(spec.rate, share(cfg, kneeShare), func(rate float64) kneeStep {
			sp := base
			sp.rate, sp.dur = rate, share(cfg, stepShare)
			st := openLoop(sp)
			tally(st)
			return sustains(st, rate, spec.limitUS)
		})
		for _, s := range steps {
			fmt.Fprintf(os.Stderr, "  knee step: offered %.0f/s achieved %.0f/s p99 %.0fus queue %.0fus pass=%v\n",
				s.rate, s.achieved, s.p99US, s.queueUS, s.pass)
		}
		if knee == 0 {
			return nil, fmt.Errorf("no offered rate down to %.0f/s met the knee rule", spec.rate/64)
		}
		st, err := fixedWindow(base, sys.shard, share(cfg, fixedShare))
		if err != nil {
			return nil, err
		}
		tally(st)
		res.set("throughput", knee)
		setLatency(res, spec, st, floorUS)
		res.set("setup_s", median(setupTimes))
		res.set("heap_mb", heap)
		return res, nil
	}

	res.zeroLayers()
	setupLayers(res, tr)
	// Untraced half: the wrappers pass straight through.
	sp := base
	sp.dur = share(cfg, fixedShare/2)
	plain := openLoop(sp)
	tally(plain)
	// Traced half.
	hm.on.Store(true)
	if sys.rows != nil {
		sys.rows.on.Store(true)
	}
	sp.tr, sp.ids = tr, hm.ids
	traced := openLoop(sp)
	hm.on.Store(false)
	if sys.rows != nil {
		sys.rows.on.Store(false)
	}
	tally(traced)
	if err := servingLayers(res, tr, sys, pool, floor, floorUS, plain, traced); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", spec.name, cfg.seed))); err != nil {
		return nil, err
	}
	return res, nil
}

func share(cfg runConfig, f float64) time.Duration {
	return time.Duration(f * float64(cfg.seconds))
}

// fixedPasses is how many passes the fixed-rate window is split into.
const fixedPasses = 10

// fixedWindow runs the fixed-rate window as fixedPasses back-to-back
// passes, each on fresh connections and fresh client workers, and pools
// their requests. Where the goroutines of one pass settle (which
// processor, next to which peer) shifts its latencies by tens of
// percent on a two-core VM; pooling passes keeps one placement from
// deciding the run.
func fixedWindow(sp loopSpec, sh *shard, dur time.Duration) (loopStats, error) {
	sp.dur = dur / fixedPasses
	var all loopStats
	for p := 0; p < fixedPasses; p++ {
		if err := sh.redial(); err != nil {
			return all, err
		}
		st := openLoop(sp)
		all.latUS = append(all.latUS, st.latUS...)
		all.lagUS = append(all.lagUS, st.lagUS...)
		all.requests += st.requests
		all.queries += st.queries
		all.failed += st.failed
		all.wrong += st.wrong
		all.refused += st.refused
		all.elapsed += st.elapsed
		all.mallocs += st.mallocs
	}
	return all, nil
}

// setLatency sets p50_us and tail_us from a fixed-rate pass, with the
// harness figures beside them, and flags a floor above 10% of p50.
func setLatency(res *result, spec servingSpec, st loopStats, floorUS float64) {
	p50 := st.latQuantile(0.5)
	res.set("p50_us", p50)
	res.set("tail_us", st.latQuantile(spec.tailQ))
	res.set("info.p99_us", st.latQuantile(0.99))
	res.set("info.samples", float64(len(st.latUS)))
	res.set("info.offered_qps", spec.rate)
	res.set("info.floor_us", floorUS)
	res.set("info.lag_p50_us", quantile(sortedCopy(st.lagUS), 0.5))
	res.set("info.lag_p99_us", quantile(sortedCopy(st.lagUS), 0.99))
	flagFloor(res, floorUS, p50)
}

// flagFloor flags a run whose harness floor exceeds 10% of its p50.
func flagFloor(res *result, floorUS, p50 float64) {
	if floorUS > 0.1*p50 {
		res.flags = append(res.flags, fmt.Sprintf("harness floor %.1fus exceeds 10%% of p50 %.1fus", floorUS, p50))
	}
}

// setupLayers turns the set-up spans into per-layer metrics: the median
// over repetitions of each stage.
func setupLayers(res *result, tr *tracer) {
	for layer, metric := range map[string]string{
		"gen":                  "gen.graph_ms",
		"shortest.apsp":        "shortest.apsp_ms",
		"table.build":          "table.build_ms",
		"landmark.build":       "landmark.build_ms",
		"schemeio.encode":      "schemeio.encode_ms",
		"schemeio.write":       "schemeio.write_ms",
		"schemeio.open":        "schemeio.open_ms",
		"schemeio.first_touch": "schemeio.first_touch_ms",
	} {
		if ds := tr.durationsMS(layer); len(ds) > 0 {
			res.set(metric, median(ds))
		}
	}
}

// servingLayers derives the serving per-layer metrics from the traced
// half, checks the reconciliation and replays the wire functions.
func servingLayers(res *result, tr *tracer, sys *system, pool [][]serve.Query, floor loopStats, floorUS float64, plain, traced loopStats) error {
	client, handler := tr.byLayer("netserve"), tr.byLayer("serve")
	selfUS, err := reconcile(client, handler)
	if err != nil {
		return fmt.Errorf("reconciliation: %w", err)
	}
	var rtt, batch []float64
	var busy time.Duration
	for _, c := range client {
		rtt = append(rtt, durUS(c.dur()))
	}
	for _, h := range handler {
		batch = append(batch, durUS(h.dur()))
		busy += h.dur()
	}
	res.set("netserve.rtt_p50_us", median(rtt))
	res.set("netserve.self_p50_us", median(selfUS))
	res.set("netserve.refused", float64(plain.refused+traced.refused))
	res.set("serve.batch_p50_us", median(batch))
	res.set("serve.busy_frac", busy.Seconds()/traced.elapsed.Seconds())
	res.set("harness.floor_us", floorUS)
	res.set("harness.lag_p50_us", quantile(sortedCopy(plain.lagUS), 0.5))
	res.set("harness.lag_p99_us", quantile(sortedCopy(plain.lagUS), 0.99))
	if p := plain.latQuantile(0.5); p > 0 {
		res.set("harness.trace_overhead_pct", 100*(traced.latQuantile(0.5)-p)/p)
	}
	flagFloor(res, floorUS, plain.latQuantile(0.5))
	// Allocations: the untraced half's Mallocs per query, less the
	// floor pass's (the harness's own allocations).
	if plain.queries > 0 && floor.queries > 0 {
		a := float64(plain.mallocs)/float64(plain.queries) - float64(floor.mallocs)/float64(floor.queries)
		res.set("netserve.allocs_per_query", math.Max(a, 0))
	}
	if sys.rows != nil {
		res.set("shortest.resident_rows", float64(sys.rows.ResidentRows(clients)))
		calls, computes, busy := sys.rows.totals()
		res.set("shortest.row_calls_per_query", float64(calls)/float64(traced.queries))
		if computes > 0 {
			res.set("shortest.row_us", durUS(busy)/float64(computes))
		}
	}
	var hops, answered float64
	for _, rs := range sys.want {
		for _, r := range rs {
			if r.Err == nil {
				hops += float64(r.Len)
				answered++
			}
		}
	}
	res.set("routing.hops_per_query", hops/answered)
	res.set("schemeio.container_bytes", float64(sys.containerBytes))
	return replayWire(res, pool, sys.want)
}

// replayWire times the public netserve wire functions on the run's
// pooled batches and their answers: the per-batch codec cost and frame
// sizes of the requests the run sent.
func replayWire(res *result, pool [][]serve.Query, want [][]serve.Result) error {
	const reps = 5
	var encReq, decReq, encResp, decResp, reqBytes, respBytes []float64
	for i, qs := range pool {
		var req, resp []byte
		var err error
		encReq = append(encReq, timeBest(reps, func() { req, err = netserve.EncodeRequest(qs) }))
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		decReq = append(decReq, timeBest(reps, func() { _, err = netserve.DecodeRequest(req) }))
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		encResp = append(encResp, timeBest(reps, func() { resp, err = netserve.EncodeResponse(want[i]) }))
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		var back []serve.Result
		decResp = append(decResp, timeBest(reps, func() { back, err = netserve.DecodeResponse(resp) }))
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		if f, _ := compareBatch(want[i], back); f != 0 {
			return errors.New("replay: response did not survive the wire round trip")
		}
		reqBytes = append(reqBytes, float64(len(req)))
		respBytes = append(respBytes, float64(len(resp)))
	}
	res.set("netserve.encode_req_us", median(encReq))
	res.set("netserve.decode_req_us", median(decReq))
	res.set("netserve.encode_resp_us", median(encResp))
	res.set("netserve.decode_resp_us", median(decResp))
	res.set("netserve.req_bytes", median(reqBytes))
	res.set("netserve.resp_bytes", median(respBytes))
	return nil
}

// timeBest runs f reps times and returns the fastest run in
// microseconds.
func timeBest(reps int, f func()) float64 {
	best := math.Inf(1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		best = math.Min(best, durUS(time.Since(start)))
	}
	return best
}
