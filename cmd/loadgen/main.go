// Command loadgen is the open-loop latency harness for the sharded
// network route service: it boots an in-process loopback cluster (k
// shard servers + scatter/gather client, real TCP, real frames — the
// exact serving path of `routeserve -listen -shards k`), then fires
// query batches at a FIXED arrival rate and records what actually
// happened to each one.
//
// Open loop means arrivals are scheduled by the clock, never by
// responses: batch i is due at start + i*batch/rate whether or not
// batch i-1 has come back, and its recorded latency runs from that due
// time to gather-complete — so queueing delay under saturation is
// measured, not hidden, which is the honesty closed-loop "drive as
// fast as it answers" benchmarks (routeserve -bench) cannot offer.
//
// One cell is measured per (shards x distmode x clients) point of the
// sweep flags; each cell reports achieved throughput and p50/p99/p999
// latency plus error/overload counts, to stderr as a table and to -o
// as BENCH_serve.json in the same document shape as the other
// BENCH_*.json trajectories (DESIGN.md "Bench trajectory"), so CI can
// archive a serving data point per run next to the core/codec ones.
// The -o file is replaced crash-safely (synced temporary file, then
// rename), so an interrupted run never leaves a torn document.
//
// Usage:
//
//	loadgen -family random -n 512 -scheme tables -rate 2000 -duration 10s
//	loadgen -load s.rsf -shards 1,4 -distmodes dense,stream -clients 4,16 -o BENCH_serve.json
//
// Query streams are seeded and deterministic in shape; wall-clock
// numbers are machine-dependent like every other recorded benchmark.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cliutil"
	"repro/internal/evaluate"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/netserve"
	"repro/internal/routing"
	"repro/internal/schemeio"
	"repro/internal/serve"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

func main() {
	family := flag.String("family", "random", "graph family when building: random|tree|torus|hypercube|complete|outerplanar|petersen")
	n := flag.Int("n", 512, "graph order when building (rounded as the family requires)")
	schemeName := flag.String("scheme", "tables", "scheme when building: tables|interval|landmark|ecube|tree")
	seed := flag.Uint64("seed", 1, "generator seed (graph, scheme and query stream)")
	load := flag.String("load", "", "load scheme+graph from this schemeio file instead of building")
	shardsCSV := flag.String("shards", "1", "comma-separated shard counts to sweep")
	modesCSV := flag.String("distmodes", "dense", "comma-separated distance backends to sweep: dense|stream")
	clientsCSV := flag.String("clients", "4", "comma-separated client worker counts to sweep")
	rate := flag.Int("rate", 2000, "open-loop arrival rate, queries/second")
	duration := flag.Duration("duration", 10*time.Second, "measured duration per cell")
	batch := flag.Int("batch", 64, "queries per request frame")
	op := flag.String("op", "mix", "query op: route|len|stretch|mix (mix cycles all three)")
	deadline := flag.Duration("deadline", 5*time.Second, "per-request deadline (client and server side)")
	maxInFlight := flag.Int("maxinflight", 256, "per-shard admission-control cap")
	workers := flag.Int("workers", 0, "per-shard serving pool size (0 = all cores)")
	out := flag.String("o", "BENCH_serve.json", "write the JSON document here ('-' = stdout)")
	flag.Parse()

	if err := cliutil.ValidateLoadgenFlags(*rate, *duration, *batch); err != nil {
		fail(2, err)
	}
	if *deadline <= 0 {
		fail(2, fmt.Errorf("-deadline must be positive, got %v", *deadline))
	}
	if *maxInFlight < 1 {
		fail(2, fmt.Errorf("-maxinflight must be >= 1, got %d", *maxInFlight))
	}
	shardCounts, err := cliutil.ParseIntList("-shards", *shardsCSV)
	if err != nil {
		fail(2, err)
	}
	clientCounts, err := cliutil.ParseIntList("-clients", *clientsCSV)
	if err != nil {
		fail(2, err)
	}
	modes, err := parseModes(*modesCSV)
	if err != nil {
		fail(2, err)
	}
	if _, err := parseOpMix(*op); err != nil {
		fail(2, err)
	}

	g, s, apsp, err := buildOrLoad(*load, *family, *n, *schemeName, *seed)
	if err != nil {
		fail(2, err)
	}
	for _, k := range shardCounts {
		if _, err := netserve.NewShardMap(g.Order(), k); err != nil {
			fail(2, err)
		}
	}
	fmt.Fprintf(os.Stderr, "loadgen: scheme %s on n=%d m=%d; open loop at %d q/s for %v per cell\n",
		s.Name(), g.Order(), g.Size(), *rate, *duration)

	doc := document{
		GoOS: runtime.GOOS, GoArch: runtime.GOARCH, Pkg: "repro/cmd/loadgen",
		CPU: fmt.Sprintf("%d logical cores", runtime.NumCPU()),
	}
	fmt.Fprintf(os.Stderr, "  %-32s %10s %10s %8s %8s %10s %9s %10s %10s %10s\n",
		"cell", "sent", "done", "errs", "overload", "qps", "allocs/q", "p50ms", "p99ms", "p999ms")
	for _, k := range shardCounts {
		for _, mode := range modes {
			for _, clients := range clientCounts {
				cell := cellConfig{
					g: g, s: s, apsp: apsp, shards: k, mode: mode, clients: clients,
					rate: *rate, duration: *duration, batch: *batch, op: *op,
					deadline: *deadline, maxInFlight: *maxInFlight,
					workers: *workers, seed: *seed,
				}
				res, err := runCell(cell)
				if err != nil {
					fail(1, fmt.Errorf("cell %s: %w", cell.name(), err))
				}
				doc.Benchmarks = append(doc.Benchmarks, res.benchmark(cell))
				fmt.Fprintf(os.Stderr, "  %-32s %10d %10d %8d %8d %10.0f %9.1f %10.2f %10.2f %10.2f\n",
					cell.name(), res.sent, res.completed, res.errors, res.overloaded, res.qps,
					res.allocsPerQuery, ms(res.p50), ms(res.p99), ms(res.p999))
			}
		}
	}
	blob, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		fail(1, err)
	}
	blob = append(blob, '\n')
	if *out == "-" {
		os.Stdout.Write(blob)
		return
	}
	if err := cliutil.WriteFileAtomic(*out, func(w io.Writer) error {
		_, err := w.Write(blob)
		return err
	}); err != nil {
		fail(1, err)
	}
	fmt.Fprintf(os.Stderr, "loadgen: wrote %s (%d cells)\n", *out, len(doc.Benchmarks))
}

func fail(code int, err error) {
	fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
	os.Exit(code)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// document mirrors cmd/benchjson's archived shape so every BENCH_*.json
// parses the same way.
type document struct {
	GoOS       string      `json:"goos,omitempty"`
	GoArch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []benchmark `json:"benchmarks"`
}

type benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

func parseModes(csv string) ([]evaluate.DistMode, error) {
	names, err := splitCSV("-distmodes", csv)
	if err != nil {
		return nil, err
	}
	out := make([]evaluate.DistMode, len(names))
	for i, name := range names {
		m, err := evaluate.ParseDistMode(name)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

func splitCSV(flagName, s string) ([]string, error) {
	if s == "" {
		return nil, fmt.Errorf("%s must not be empty", flagName)
	}
	var out []string
	for _, p := range splitComma(s) {
		if p == "" {
			return nil, fmt.Errorf("%s: empty entry", flagName)
		}
		out = append(out, p)
	}
	return out, nil
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}

// parseOpMix resolves -op to the op cycle one batch position steps
// through: a single op, or all three for "mix".
func parseOpMix(name string) ([]serve.Op, error) {
	if name == "mix" {
		return []serve.Op{serve.OpRoute, serve.OpLen, serve.OpStretch}, nil
	}
	op, err := serve.ParseOp(name)
	if err != nil {
		return nil, fmt.Errorf("-op: %w (or mix)", err)
	}
	return []serve.Op{op}, nil
}

// buildOrLoad resolves the served pair the same way routeserve does,
// minus the persistence bookkeeping the harness does not need.
func buildOrLoad(load, family string, n int, schemeName string, seed uint64) (*graph.Graph, routing.Scheme, *shortest.APSP, error) {
	if load != "" {
		f, err := os.Open(load)
		if err != nil {
			return nil, nil, nil, err
		}
		defer f.Close()
		g, s, err := schemeio.ReadFile(f)
		if err != nil {
			return nil, nil, nil, err
		}
		return g, s, nil, nil
	}
	g, err := gen.ByName(family, n, xrand.New(seed))
	if err != nil {
		return nil, nil, nil, err
	}
	s, apsp, err := cliutil.BuildScheme(schemeName, g, cliutil.SchemeConfig{Seed: seed})
	if err != nil {
		return nil, nil, nil, err
	}
	return g, s, apsp, err
}

type cellConfig struct {
	g                    *graph.Graph
	s                    routing.Scheme
	apsp                 *shortest.APSP
	shards, clients      int
	mode                 evaluate.DistMode
	rate, batch          int
	duration, deadline   time.Duration
	maxInFlight, workers int
	op                   string
	seed                 uint64
}

func (c cellConfig) name() string {
	return fmt.Sprintf("Serve/shards=%d/distmode=%v/clients=%d", c.shards, c.mode, c.clients)
}

type cellResult struct {
	sent, completed    int64 // queries scheduled / answered without error
	errors, overloaded int64 // per-query errors / overload refusals among them
	qps                float64
	// allocsPerQuery is the corrected serving-path figure: the
	// process-wide Mallocs delta per completed query, minus the per-cell
	// no-op baseline below. allocsRaw keeps the uncorrected quotient so
	// recorded documents stay comparable with pre-correction runs.
	allocsPerQuery float64
	allocsRaw      float64
	allocsBaseline float64 // harness-only Mallocs per query (stub transport)
	p50, p99, p999 time.Duration
}

func (r cellResult) benchmark(c cellConfig) benchmark {
	return benchmark{
		Name:       c.name(),
		Iterations: r.completed,
		Metrics: map[string]float64{
			"rate":                 float64(c.rate),
			"batch":                float64(c.batch),
			"sent":                 float64(r.sent),
			"completed":            float64(r.completed),
			"errors":               float64(r.errors),
			"overloaded":           float64(r.overloaded),
			"qps":                  r.qps,
			"allocs_per_query":     r.allocsPerQuery,
			"allocs_per_query_raw": r.allocsRaw,
			"allocs_baseline":      r.allocsBaseline,
			"p50_ns":               float64(r.p50),
			"p99_ns":               float64(r.p99),
			"p999_ns":              float64(r.p999),
		},
	}
}

// cellSource builds one shard's distance backend: the dense table is
// shared when the scheme build already produced it (read-only), every
// other backend is per-shard so resident rows stay per-slice.
func cellSource(c cellConfig) (shortest.DistanceSource, error) {
	opt := evaluate.Options{Workers: c.workers, DistMode: c.mode}
	if (c.mode == evaluate.DistAuto || c.mode == evaluate.DistDense) && c.apsp != nil {
		return c.apsp, nil
	}
	return opt.Source(c.g, c.apsp)
}

// poolBatches is the size of the pre-built seeded batch pool every
// pass cycles through.
const poolBatches = 64

// runCell measures one (shards, distmode, clients) point.
func runCell(c cellConfig) (cellResult, error) {
	ops, err := parseOpMix(c.op)
	if err != nil {
		return cellResult{}, err
	}
	// Boot the loopback cluster.
	var srcErr error
	group, err := netserve.ListenGroupInto(c.shards, func(int) netserve.BatchHandlerInto {
		src, err := cellSource(c)
		if err != nil && srcErr == nil {
			srcErr = err
		}
		sv := serve.New(c.g, c.s, src, serve.Options{Workers: c.workers})
		return sv.ServeBatchInto
	}, netserve.Options{ReadTimeout: c.deadline, WriteTimeout: c.deadline, MaxInFlight: c.maxInFlight})
	if err != nil {
		return cellResult{}, err
	}
	defer group.Close()
	if srcErr != nil {
		return cellResult{}, srcErr
	}
	cluster, err := netserve.DialCluster(group.Addrs(), c.g.Order(), netserve.ClusterOptions{Deadline: c.deadline})
	if err != nil {
		return cellResult{}, err
	}
	defer cluster.Close()

	// Seeded query stream: a pool of pre-built batches the open loop
	// cycles through, so generation cost never pollutes latencies.
	n := c.g.Order()
	r := xrand.New(c.seed ^ 0x9e3779b97f4a7c15)
	pool := make([][]serve.Query, poolBatches)
	for b := range pool {
		qs := make([]serve.Query, c.batch)
		for i := range qs {
			u := graph.NodeID(r.Intn(n))
			v := graph.NodeID(r.Intn(n))
			if u == v {
				v = graph.NodeID((int(v) + 1) % n)
			}
			qs[i] = serve.Query{Op: ops[i%len(ops)], U: u, V: v}
		}
		pool[b] = qs
	}
	// Warm-up outside the measurement: resolve lazy backends, touch
	// every shard, fill connection pools.
	for w := 0; w < 2*c.shards; w++ {
		for _, res := range cluster.ServeBatch(pool[w%poolBatches]) {
			if res.Err != nil {
				return cellResult{}, fmt.Errorf("warm-up query failed: %w", res.Err)
			}
		}
	}

	interval := time.Duration(int64(time.Second) * int64(c.batch) / int64(c.rate))
	if interval <= 0 {
		interval = time.Nanosecond
	}
	total := int(c.duration / interval)
	if total < 1 {
		total = 1
	}

	// Calibrate the harness's own allocation footprint first: the exact
	// same schedule, workers and per-batch bookkeeping, but the transport
	// is a no-op returning a canned result slice. Whatever this pass
	// allocates (job structs, latency appends, timer internals) is
	// measurement machinery, not serving path, and is subtracted below.
	// The canned slice is shared and read-only, so the baseline charges
	// NO per-batch result allocation — the real path's result buffers
	// stay charged to the serving figure, as do the client-side frame
	// encode/decode costs (see DESIGN.md for the residual).
	canned := make([]serve.Result, c.batch)
	baseline := openLoop(c, pool, total, interval, func([]serve.Query) []serve.Result { return canned }, false)

	// The measured pass: the open loop proper. Arrivals land on the jobs
	// channel at fixed ticks; the channel is sized for every arrival of
	// the run, so a slow server backlogs the queue (and the recorded
	// latency) rather than stalling the arrival process.
	run := openLoop(c, pool, total, interval, cluster.ServeBatch, true)

	var res cellResult
	res.sent = int64(total) * int64(c.batch)
	res.completed = run.completed
	res.errors = run.errors
	res.overloaded = run.overloaded
	sort.Slice(run.lats, func(i, j int) bool { return run.lats[i] < run.lats[j] })
	res.p50 = quantile(run.lats, 0.50)
	res.p99 = quantile(run.lats, 0.99)
	res.p999 = quantile(run.lats, 0.999)
	res.qps = float64(res.completed) / run.elapsed.Seconds()
	if res.completed > 0 {
		res.allocsRaw = float64(run.mallocs) / float64(res.completed)
	}
	if baseline.completed > 0 {
		res.allocsBaseline = float64(baseline.mallocs) / float64(baseline.completed)
	}
	res.allocsPerQuery = res.allocsRaw - res.allocsBaseline
	if res.allocsPerQuery < 0 {
		res.allocsPerQuery = 0
	}
	return res, nil
}

// loopStats is one pass of the open-loop schedule.
type loopStats struct {
	completed, errors, overloaded int64
	lats                          []time.Duration
	elapsed                       time.Duration
	mallocs                       uint64 // process-wide Mallocs delta across the pass
}

// openLoop drives the full schedule (total jobs, c.clients workers, the
// same per-batch bookkeeping) against do, bracketing the pass with
// MemStats reads. paced=false collapses the arrival clock — every job
// is due immediately — which the no-op calibration pass uses so a cell
// does not take twice its -duration.
func openLoop(c cellConfig, pool [][]serve.Query, total int, interval time.Duration, do func([]serve.Query) []serve.Result, paced bool) loopStats {
	type job struct{ due time.Time }
	jobs := make(chan job, total)
	var wg sync.WaitGroup
	lats := make([][]time.Duration, c.clients)
	errCounts := make([]int64, c.clients)
	overloadCounts := make([]int64, c.clients)
	okQueries := make([]int64, c.clients)
	for w := 0; w < c.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := w // stagger which pooled batch each client starts on
			for j := range jobs {
				qs := pool[b%poolBatches]
				b++
				out := do(qs)
				lat := time.Since(j.due)
				lats[w] = append(lats[w], lat)
				for _, res := range out {
					if res.Err == nil {
						okQueries[w]++
						continue
					}
					errCounts[w]++
					var ref *netserve.Refusal
					if errors.As(res.Err, &ref) && ref.Code == netserve.RefuseOverloaded {
						overloadCounts[w]++
					}
				}
			}
		}(w)
	}
	// The Mallocs delta is process-wide (clients + servers + cluster all
	// run in this process, which is the point — it sees the whole
	// serving path), divided by completed queries by the caller. The
	// pooled buffers in netserve/serve are what keep it near-flat as
	// rate grows.
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	for i := 0; i < total; i++ {
		due := start
		if paced {
			due = start.Add(time.Duration(i) * interval)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		}
		jobs <- job{due: due}
	}
	close(jobs)
	wg.Wait()
	var st loopStats
	st.elapsed = time.Since(start)
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	st.mallocs = memAfter.Mallocs - memBefore.Mallocs
	for w := 0; w < c.clients; w++ {
		st.lats = append(st.lats, lats[w]...)
		st.completed += okQueries[w]
		st.errors += errCounts[w]
		st.overloaded += overloadCounts[w]
	}
	return st
}

// quantile reads the q-th latency from a sorted slice (nearest-rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted)-1) + 0.5)
	return sorted[idx]
}
