package main

import (
	"fmt"

	"hadfl"
	"hadfl/internal/p2p"
)

// metricDef names one metric of the benchmark. BENCHMARK.json lists the
// same names with the same units and directions; TestCatalogMatchesJSON
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// Workload names, as BENCHMARK.json lists them.
const (
	wlTrainMLP  = "train_mlp"
	wlTrainConv = "train_conv"
	wlDispatch  = "dispatch_small_jobs"
	wlReads     = "serve_reads"
)

// End-to-end metrics. Every workload reports every one of them; what
// the operation, its tail and the unit of work are differs by workload
// (see README.md):
//
//	train_*              one hadfl.RunContext call; tail = median of the
//	                     slowest configuration; work = training samples
//	dispatch_small_jobs  POST /runs → verified curve body; tail = p95;
//	                     work = jobs
//	serve_reads          one read in the closed-loop phase; tail = p99;
//	                     work = its 2xx responses (the open-loop
//	                     latencies are per-layer metrics)
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_latency_p50_ms", "ms", "lower"},
	{"op_latency_tail_ms", "ms", "lower"},
	{"goodput_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// matmulShapes are the three M×K×N products the four models issue most:
// a dense layer of the MLPs at batch 64, and the im2col products of the
// 8→8 channel conv at 8×8 and the 16→16 channel conv at 4×4, batch 32.
var matmulShapes = [][3]int{{64, 32, 32}, {2048, 72, 8}, {512, 144, 16}}

func matmulName(s [3]int) string {
	return fmt.Sprintf("tensor.matmul_gflops.%dx%dx%d", s[0], s[1], s[2])
}

// perLayer builds the per-layer catalog. Names are <module>.<metric>;
// where a metric is measured per scheme, codec, model or shape the
// suffix says which. The registries are read at start-up, so a newly
// registered scheme or codec shows up as a catalog mismatch until
// BENCHMARK.json lists it.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{n, unit, better})
		}
	}
	// Measured by the train_* workloads.
	for _, s := range hadfl.Schemes() {
		add("s", "lower", "hadfl.scheme."+s+".run_wall_p50_s")
	}
	add("s", "lower", "hadfl.run_wall_p50_s.conv", "hadfl.round_wall_p50_s.mlp", "hadfl.round_wall_p50_s.conv")
	add("count", "lower", "hadfl.rounds_per_run.mlp", "hadfl.rounds_per_run.conv", "hadfl.golden_mismatches")
	add("1/s", "higher", "hadfl.samples_per_s.mlp", "hadfl.samples_per_s.conv")
	add("ratio", "higher", "hadfl.speedup_vs_fedavg", "hadfl.final_accuracy")
	add("ratio", "lower", "eval.share.mlp", "eval.share.conv")

	// Measured by dispatch_small_jobs: scrape deltas and client stamps.
	add("s", "lower",
		"dispatch.job_latency_p50_s", "dispatch.job_latency_tail_s",
		"dispatch.rtt_mean_s", "worker.run_mean_s", "dispatch.overhead_mean_s",
		"serve.post_mean_s", "serve.events_mean_s", "serve.queue_wait_mean_s",
		"serve.run_duration_mean_s", "serve.notify_lag_mean_s", "serve.curve_fetch_mean_s",
		"serve.client_overhead_mean_s")
	add("1/s", "higher", "dispatch.jobs_per_s")
	add("B", "lower", "dispatch.wire_bytes_per_job")
	add("count", "lower", "dispatch.retries", "dispatch.busy_rejections",
		"dispatch.local_fallbacks", "dispatch.hedges", "serve.cache_misses")
	add("ratio", "lower", "dispatch.unattributed_share")

	// Measured by serve_reads.
	add("s", "lower", "serve.read_latency_p50_s", "serve.read_latency_tail_s",
		"serve.open_loop_latency_p50_s", "serve.open_loop_latency_tail_s",
		"serve.get_status_mean_s", "loadgen.lateness_p99_s")
	add("1/s", "higher", "serve.read_capacity_rps")
	add("count", "higher", "serve.cache_hits")
	add("count", "lower", "serve.queue_rejections", "serve.rate_limited")
	add("B", "lower", "serve.response_bytes_per_req")

	// Measured on the selected workload.
	add("count", "higher", "loadgen.sent", "loadgen.succeeded", "trace.spans")
	add("count", "lower", "loadgen.failed")
	add("ratio", "lower", "trace.overhead_share")

	// Measured by the in-process layer probes.
	add("s", "lower",
		"hadfl.fingerprint_s",
		"dataset.generate_s.vector", "dataset.generate_s.image", "dataset.loader_next_s",
		"core.build_cluster_s", "core.gather_s",
		"nn.train_step_s.resmlp", "nn.train_step_s.plainmlp",
		"nn.train_step_s.resnettiny", "nn.train_step_s.vggtiny",
		"nn.params_roundtrip_s", "tensor.im2col_s",
		"eval.evaluate_s.mlp", "eval.evaluate_s.conv",
		"aggregate.mean_into_s", "aggregate.partial_mean_s", "strategy.generate_s",
		"p2p.marshal_s", "p2p.unmarshal_s", "p2p.pack_bytes_s",
		"p2p.chunk_roundtrip_s", "p2p.tcp_frame_rtt_s",
		"dispatch.simnet_run_s", "dispatch.local_run_s",
		"serve.handler_get_s", "serve.handler_get_curve_s",
		"serve.submit_hit_s", "serve.ratelimit_allow_s",
		"metrics.observe_s", "trace.span_s")
	for _, s := range matmulShapes {
		add("GFLOP/s", "higher", matmulName(s))
	}
	add("ratio", "higher", "tensor.parallel_speedup")
	for _, c := range p2p.ParamCodecNames() {
		add("s", "lower", "p2p.codec_encode_s."+c, "p2p.codec_decode_s."+c)
		add("ratio", "lower", "p2p.codec_wire_ratio."+c)
	}
	return defs
}
