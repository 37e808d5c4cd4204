package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units,
// directions and bounds; bench_test.go checks that the two lists agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression (0 for
	// per-layer metrics, which have none).
	Bound float64
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, so each has one meaning per workload; the
// table in README.md and nativeNames below give it.
//
// The timing bounds are the largest the driver allows. Sets of sixty
// runs on the two-core sandbox showed the machine itself drifting for
// minutes at a time: the medians of one workload moved by up to 13 % from
// one set to the next, and the spread between the quartiles of ten runs
// reached 0.19 of the median. A tighter bound would reject changes for the
// machine's noise.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"derived_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// nativeNames maps workload → end-to-end metric → the name the metric has
// in that workload's own terms (the names ISSUE 11 and later issues use).
var nativeNames = map[string]map[string]string{
	"batch_scalar":   {"op_p50_ms": "batch_s", "op_tail_ms": "cold_batch_s", "work_per_s": "fact_rows_per_s", "derived_p50_ms": "model_s"},
	"batch_groupby":  {"op_p50_ms": "batch_s", "op_tail_ms": "cold_batch_s", "work_per_s": "fact_rows_per_s", "derived_p50_ms": "model_s"},
	"maintain_dim":   {"op_p50_ms": "apply_p50_ms", "op_tail_ms": "apply_p90_ms", "work_per_s": "update_rows_per_s", "derived_p50_ms": "refit_p50_ms"},
	"maintain_fact":  {"op_p50_ms": "apply_p50_ms", "op_tail_ms": "apply_p95_ms", "work_per_s": "update_rows_per_s", "derived_p50_ms": "refit_p50_ms"},
	"serve_mixed":    {"op_p50_ms": "lookup_p50_us", "op_tail_ms": "lookup_stall_ms", "work_per_s": "lookup_rps", "derived_p50_ms": "ingest_p50_ms"},
	"durable_stream": {"op_p50_ms": "apply_p50_ms", "op_tail_ms": "apply_behind_checkpoint_ms", "work_per_s": "update_rows_per_s", "derived_p50_ms": "recover_s"},
}

// perLayer are the metrics of single layers, reported by a traced run. A
// workload that does not call a layer reports 0 for that layer's metrics.
var perLayer = []metricDef{
	// Set-up, every workload.
	{Name: "datagen.build_ms", Unit: "ms", Better: "lower"},
	{Name: "jointree.build_ms", Unit: "ms", Better: "lower"},
	{Name: "data.sort_ms", Unit: "ms", Better: "lower"},
	{Name: "moo.cold_run_ms", Unit: "ms", Better: "lower"},
	// Planning.
	{Name: "core.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "core.plans", Unit: "count", Better: "lower"},
	{Name: "core.views", Unit: "count", Better: "lower"},
	{Name: "core.groups", Unit: "count", Better: "lower"},
	{Name: "core.aggs_per_view", Unit: "count", Better: "lower"},
	// Batch execution.
	{Name: "moo.run_ms", Unit: "ms", Better: "lower"},
	{Name: "moo.run_mrows_per_s", Unit: "Mrows/s", Better: "higher"},
	{Name: "moo.output_bytes", Unit: "bytes", Better: "lower"},
	// Applications.
	{Name: "ml.linreg_fit_ms", Unit: "ms", Better: "lower"},
	{Name: "ml.chowliu_fit_ms", Unit: "ms", Better: "lower"},
	{Name: "ml.cube_fit_ms", Unit: "ms", Better: "lower"},
	{Name: "ml.tree_requeries", Unit: "count", Better: "lower"},
	{Name: "ml.tree_requery_ms", Unit: "ms", Better: "lower"},
	{Name: "ml.tree_self_ms", Unit: "ms", Better: "lower"},
	// Incremental maintenance.
	{Name: "moo.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "moo.apply_scan_ms", Unit: "ms", Better: "lower"},
	{Name: "moo.apply_merge_ms", Unit: "ms", Better: "lower"},
	{Name: "moo.scan_share", Unit: "share", Better: "lower"},
	{Name: "moo.kernel_group_share", Unit: "share", Better: "higher"},
	{Name: "moo.idscan_group_share", Unit: "share", Better: "higher"},
	{Name: "moo.fullscan_group_share", Unit: "share", Better: "lower"},
	{Name: "moo.dirty_view_share", Unit: "share", Better: "lower"},
	{Name: "kernel.cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "kernel.cache_size", Unit: "count", Better: "lower"},
	{Name: "ivm.analyze_us", Unit: "us", Better: "lower"},
	{Name: "data.apply_delta_ms", Unit: "ms", Better: "lower"},
	{Name: "data.key_index_ms", Unit: "ms", Better: "lower"},
	{Name: "data.route_us", Unit: "us", Better: "lower"},
	// Sessions.
	{Name: "lmfao.session_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "lmfao.incremental_share", Unit: "share", Better: "higher"},
	{Name: "lmfao.coalesce_factor", Unit: "ratio", Better: "higher"},
	{Name: "lmfao.shard_skew", Unit: "ratio", Better: "lower"},
	{Name: "lmfao.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "moo.combine_ms", Unit: "ms", Better: "lower"},
	{Name: "lmfao.apply_p99_ms", Unit: "ms", Better: "lower"},
	// Serving.
	{Name: "lmfao.snapshot_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "lmfao.sharded_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.handler_us", Unit: "us", Better: "lower"},
	{Name: "serve.transport_us", Unit: "us", Better: "lower"},
	{Name: "serve.lookup_p95_us", Unit: "us", Better: "lower"},
	{Name: "serve.lookup_p99_us", Unit: "us", Better: "lower"},
	{Name: "serve.gen_late_p99_us", Unit: "us", Better: "lower"},
	{Name: "serve.degraded_share", Unit: "share", Better: "lower"},
	{Name: "serve.status_429_share", Unit: "share", Better: "lower"},
	{Name: "serve.shed_count", Unit: "count", Better: "lower"},
	{Name: "serve.response_bytes", Unit: "bytes", Better: "lower"},
	{Name: "serve.ingest_overhead_ms", Unit: "ms", Better: "lower"},
	// Durability.
	{Name: "wal.append_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.bytes_per_row", Unit: "bytes", Better: "lower"},
	{Name: "wal.checkpoint_bytes", Unit: "bytes", Better: "lower"},
	{Name: "lmfao.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.checkpoint_load_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.replay_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "lmfao.recover_reapply_ms", Unit: "ms", Better: "lower"},
	// Self time per layer over the whole traced run, and the cost of
	// tracing itself.
	{Name: "self.datagen_ms", Unit: "ms", Better: "lower"},
	{Name: "self.jointree_ms", Unit: "ms", Better: "lower"},
	{Name: "self.core_ms", Unit: "ms", Better: "lower"},
	{Name: "self.moo_ms", Unit: "ms", Better: "lower"},
	{Name: "self.ml_ms", Unit: "ms", Better: "lower"},
	{Name: "self.ivm_ms", Unit: "ms", Better: "lower"},
	{Name: "self.data_ms", Unit: "ms", Better: "lower"},
	{Name: "self.lmfao_ms", Unit: "ms", Better: "lower"},
	{Name: "self.serve_ms", Unit: "ms", Better: "lower"},
	{Name: "self.wal_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "share", Better: "lower"},
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method), which is
// what the driver uses for run-to-run spread. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := max(1, min(i*m/4, len(s)-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// peakRSSMB returns the process's peak resident set size, the kernel's
// high-water mark (what /proc/self/status calls VmHWM).
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}
