package metrics

import "strings"

// The canonical metric-name catalog. Every name a Registry in this
// repo registers must appear here (or match a documented dynamic
// prefix): the help strings become Prometheus # HELP lines, and the
// hygiene tests fail CI when an undocumented or non-snake_case name
// shows up on /stats — so the metric surface cannot drift silently.
// The contract is also enforced statically: the metriccatalog analyzer
// (internal/lint, `make lint`) resolves every name literal passed to a
// Registry method against this catalog at lint time, and requires
// dynamic names to be built from a documented prefix + SanitizeName.

// canonicalNames maps every static metric name to its help text.
var canonicalNames = map[string]string{
	// serve pool + queue
	"pool_workers":           "configured pool worker count",
	"queue_depth":            "jobs waiting in the pool queue (not running)",
	"queue_rejections_total": "submissions rejected because the queue was full",
	"runs_submitted_total":   "jobs admitted to the pool queue",
	"runs_started_total":     "jobs that began executing",
	"runs_completed_total":   "jobs that finished successfully",
	"runs_failed_total":      "jobs that finished with a non-cancel error",
	"runs_canceled_total":    "jobs canceled before completion",
	"runs_timeout_total":     "jobs that hit their wall-clock limit",
	"jobs_running":           "jobs executing right now",
	"queue_wait_seconds":     "histogram: submission-to-start wait per job",
	"run_duration_seconds":   "histogram: execution time per finished job",
	"run_eval_seconds":       "histogram: evaluation-engine wall seconds per run",
	"eval_batches_total":     "evaluation batches forwarded across completed runs",
	"eval_seconds_total":     "evaluation wall-clock seconds across completed runs",

	// serve cache + store
	"cache_hits_total":          "submissions served from the result cache",
	"cache_misses_total":        "submissions that missed the cache and enqueued",
	"cache_jobs":                "jobs held in the cache (any state)",
	"cache_evictions_total":     "terminal-failure evictions (retry path)",
	"cache_evictions_lru_total": "LRU evictions of terminal jobs past the cap",
	"cache_lookup_seconds":      "histogram: result-cache lookup latency",
	"store_saved_total":         "results persisted to the store directory",
	"store_skipped_total":       "persisted results skipped on rehydration (corrupt or mismatched)",
	"store_errors_total":        "result-store I/O failures",
	"store_rehydrated":          "results rehydrated into the cache at boot",

	// serve HTTP surface
	"rate_limited_total":        "POST /runs rejections by the token bucket",
	"sse_streams_total":         "SSE event-stream connections opened",
	"cancels_requested_total":   "DELETE /runs/{id} cancellations accepted",
	"http_response_bytes_total": "response body bytes written across all HTTP endpoints",

	// process runtime (set at scrape/stats time)
	"process_uptime_seconds": "seconds since the process started",
	"process_goroutines":     "live goroutines",
	"process_heap_bytes":     "heap bytes in use (runtime.MemStats.HeapAlloc)",

	// dispatcher
	"dispatch_workers_configured":    "workers in the dispatcher's configured list",
	"dispatch_workers_live":          "workers currently considered alive",
	"dispatch_workers_lost_total":    "liveness-grace expiries marking a worker down",
	"dispatch_bad_hellos_total":      "undecodable or version-skewed hello acks",
	"dispatch_requests_total":        "run requests shipped to workers",
	"dispatch_remote_total":          "runs completed remotely",
	"dispatch_retries_total":         "transient failures retried on another worker",
	"dispatch_local_fallback_total":  "runs executed locally because no worker was live",
	"dispatch_cancels_total":         "cancel frames sent for aborted runs",
	"dispatch_busy_rejections_total": "capacity rejections received from workers",
	"dispatch_stray_results_total":   "result frames dropped for a foreign instance token",
	"dispatch_stray_errors_total":    "error frames dropped as stray or unattributable",
	"dispatch_rtt_seconds":           "histogram: request-to-terminal-frame round trip per attempt",
	"dispatch_result_frame_bytes":    "histogram: result body size on the wire (reassembled when chunk-streamed)",

	// dispatch result parameters + chunk streaming
	"dispatch_wire_raw_bytes_total":       "parameter bytes dispatched results shipped as raw64",
	"dispatch_wire_chunks_total":          "chunk frames received on the dispatch wire",
	"dispatch_wire_chunked_results_total": "terminal frames that arrived as chunk streams",

	// dispatch resilience: circuit breakers, retry backoff, hedging
	"dispatch_breaker_open_total":     "breaker trips: consecutive transient faults (or a failed half-open trial) opened a worker's circuit",
	"dispatch_breaker_halfopen_total": "open breakers moved to half-open by a liveness-proving frame after the cooldown",
	"dispatch_breaker_close_total":    "breakers closed by a successful half-open trial run",
	"dispatch_breaker_open_workers":   "workers whose circuit breaker is currently open",
	"dispatch_retry_backoff_seconds":  "histogram: jittered delay before re-dispatching after a transient worker fault",
	"dispatch_hedges_total":           "hedge legs launched after an attempt outlasted the hedge delay",
	"dispatch_hedge_wins_total":       "hedged runs whose hedge leg produced the winning result",
	"dispatch_hedge_cancels_total":    "losing legs canceled after the other leg finished first",
	"dispatch_reconsider_total":       "retry passes that re-admitted recovered workers a job had already tried",

	// worker
	"worker_capacity":                 "configured concurrent-run budget",
	"worker_running":                  "dispatched runs executing right now",
	"worker_hellos_total":             "dispatcher registrations answered",
	"worker_heartbeats_total":         "liveness probes acked",
	"worker_runs_total":               "dispatched runs started",
	"worker_runs_completed_total":     "dispatched runs finished successfully",
	"worker_runs_failed_total":        "dispatched runs finished with an error",
	"worker_cancels_total":            "cancel frames that aborted a run",
	"worker_busy_rejections_total":    "requests rejected at capacity",
	"worker_unknown_frames_total":     "frames of kinds the worker does not handle",
	"worker_result_send_errors_total": "results that could not be framed or sent",
	"worker_chunked_results_total":    "results shipped as chunk streams (body outgrew one frame)",
	"worker_run_seconds":              "histogram: dispatched run execution time",
}

// canonicalPrefixes documents name families minted at runtime; the
// suffix must itself be snake_case (SanitizeName enforces that at the
// registration site).
var canonicalPrefixes = map[string]string{
	"runs_scheme_":          "jobs started per scheme (suffix: sanitized scheme name)",
	"http_request_seconds_": "histogram: request latency per HTTP endpoint (suffix: sanitized method+route)",
}

// Help returns the documented help text for a metric name, resolving
// dynamic prefixes; ok is false for undocumented names.
func Help(name string) (help string, ok bool) {
	if h, ok := canonicalNames[name]; ok {
		return h, true
	}
	for p, h := range canonicalPrefixes {
		if strings.HasPrefix(name, p) && len(name) > len(p) {
			return h, true
		}
	}
	return "", false
}

// IsCanonical reports whether name is part of the documented metric
// surface (exact name or documented prefix).
func IsCanonical(name string) bool {
	_, ok := Help(name)
	return ok
}

// CanonicalNames returns the static catalog (name → help); dynamic
// prefix families are listed by CanonicalPrefixes. The maps are
// copies, owned by the caller.
func CanonicalNames() map[string]string {
	out := make(map[string]string, len(canonicalNames))
	for k, v := range canonicalNames {
		out[k] = v
	}
	return out
}

// CanonicalPrefixes returns the documented dynamic prefixes.
func CanonicalPrefixes() map[string]string {
	out := make(map[string]string, len(canonicalPrefixes))
	for k, v := range canonicalPrefixes {
		out[k] = v
	}
	return out
}

// SanitizeName lowercases s and maps every byte outside [a-z0-9_] to
// '_', yielding a valid snake_case metric-name fragment (scheme names
// like "decentralized-fedavg" become "decentralized_fedavg").
func SanitizeName(s string) string {
	b := []byte(strings.ToLower(s))
	for i, c := range b {
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			b[i] = '_'
		}
	}
	return string(b)
}
