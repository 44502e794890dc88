package main

import (
	"sort"
	"time"
)

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run prints. Every workload
// reports every one of them; what each means per workload is in
// README.md ("End-to-end metrics").
var endToEnd = []metricDef{
	{"throughput", "1/s"},
	{"p50_us", "us"},
	{"tail_us", "us"},
	{"setup_s", "s"},
	{"heap_mb", "MiB"},
}

// perLayer are the metrics a traced run prints. A layer a workload does
// not exercise reports 0 (no rows computed, no delta decoded, ...).
var perLayer = []metricDef{
	{"netserve.rtt_p50_us", "us"},
	{"netserve.self_p50_us", "us"},
	{"netserve.refused", "count"},
	{"netserve.encode_req_us", "us"},
	{"netserve.decode_req_us", "us"},
	{"netserve.encode_resp_us", "us"},
	{"netserve.decode_resp_us", "us"},
	{"netserve.req_bytes", "bytes"},
	{"netserve.resp_bytes", "bytes"},
	{"netserve.allocs_per_query", "count"},
	{"serve.batch_p50_us", "us"},
	{"serve.busy_frac", "fraction"},
	{"serve.swap_us", "us"},
	{"routing.hops_per_query", "count"},
	{"shortest.row_calls_per_query", "count"},
	{"shortest.row_us", "us"},
	{"shortest.apsp_ms", "ms"},
	{"shortest.refresh_ms", "ms"},
	{"shortest.resident_rows", "rows"},
	{"gen.graph_ms", "ms"},
	{"table.build_ms", "ms"},
	{"table.repair_ms", "ms"},
	{"table.changed_rows", "count"},
	{"table.changed_per_dirty", "fraction"},
	{"landmark.build_ms", "ms"},
	{"schemeio.encode_ms", "ms"},
	{"schemeio.write_ms", "ms"},
	{"schemeio.open_ms", "ms"},
	{"schemeio.first_touch_ms", "ms"},
	{"schemeio.container_bytes", "bytes"},
	{"schemeio.delta_encode_ms", "ms"},
	{"schemeio.delta_decode_ms", "ms"},
	{"schemeio.delta_apply_ms", "ms"},
	{"schemeio.delta_bytes", "bytes"},
	{"faults.dirty_ms", "ms"},
	{"faults.dirty_rows", "count"},
	{"pipeline.swap_p50_ms", "ms"},
	{"pipeline.swap_p90_ms", "ms"},
	{"evaluate.self_s", "s"},
	{"harness.floor_us", "us"},
	{"harness.lag_p50_us", "us"},
	{"harness.lag_p99_us", "us"},
	{"harness.trace_overhead_pct", "%"},
}

// extra are figures printed to stderr only: context for a reader of the
// report, not compared between commits.
var extra = []metricDef{
	{"info.offered_qps", "1/s"},
	{"info.samples", "count"},
	{"info.p99_us", "us"},
	{"info.swap_p50_ms", "ms"},
	{"info.swap_p90_ms", "ms"},
	{"info.floor_us", "us"},
	{"info.lag_p50_us", "us"},
	{"info.lag_p99_us", "us"},
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer, extra} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// zeroLayers gives every per-layer metric a 0 entry, so a workload sets
// only the layers it exercises.
func (r *result) zeroLayers() {
	for _, d := range perLayer {
		r.metrics[d.name] = 0
	}
}

// quantile reads the q-quantile of sorted by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted)-1) + 0.5)
	return sorted[idx]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func durUS(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
