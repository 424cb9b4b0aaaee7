// Package serve turns the one-shot HADFL simulator into a long-lived
// experiment service: a bounded job queue drained by a worker pool, a
// content-addressed result cache, and an HTTP/JSON API with per-round
// streaming progress. It is the entry point used by cmd/hadfl-serve.
//
// # API
//
//	POST   /runs              submit {"scheme": "...", "options": {...}};
//	                          202 with {id, state} for a new job, 200 with
//	                          cached:true when the content-addressed cache
//	                          already holds (or is computing) the result
//	GET    /runs/{id}         job status; includes the result summary once
//	                          done, and the full training curve with ?curve=1
//	DELETE /runs/{id}         cancel on the client's behalf: 202 acknowledges
//	                          the request (poll for the terminal state); a
//	                          queued job turns canceled immediately, a
//	                          running one within about a device step
//	GET    /runs/{id}/events  Server-Sent Events: one "state" event per
//	                          transition and one "round" event per
//	                          progress report (fed from
//	                          hadfl.Options.OnRound); past events are
//	                          replayed so late subscribers miss nothing
//	GET    /schemes           the training schemes, straight from
//	                          hadfl.Schemes
//	GET    /healthz           liveness: {"status":"ok", uptime, jobs}
//	GET    /stats             metrics.Registry snapshot (queue depth, cache
//	                          hit/miss, per-scheme run counts, ...) plus
//	                          pool and cache configuration
//
// Every status payload carries a cache disposition field reporting
// where the response came from: POST answers "miss" (fresh enqueue),
// "coalesced" (joined an in-flight identical run) or "hit" (completed
// result served from cache); GET /runs/{id} answers "hit" once the job
// is done and "miss" otherwise. cached:true accompanies hit and
// coalesced. The disposition is per-response, so a poll of a job that
// later completes flips miss → hit.
//
// # Serving hot path
//
// The steady-state request mix (polls and cache-hit submissions
// against completed jobs) is engineered to stay off every global lock:
// the result cache is sharded by fingerprint hash, terminal job
// statuses are encoded to wire bytes once and then served verbatim
// (zero allocations per request, pinned by the alloc-guard), the POST
// rate limiter is a lock-free GCRA, and the metrics registry is atomic
// cells behind sync.Map. See DESIGN.md "The serving hot path"; the
// serve_reads workload in BENCHMARK.json is the measurement.
//
// # Cache semantics
//
// Runs are deterministic given their options (seeded simulation), so
// the result is content-addressed by hadfl.Fingerprint(scheme,
// options) — the job ID *is* the fingerprint. A resubmission of
// identical work returns the existing job whether it is still queued,
// running, or done: concurrent duplicates coalesce onto one in-flight
// run and completed results are served from memory without retraining.
// Failed, canceled and timed-out jobs are evicted on the next
// identical submission, which therefore retries the run. With
// Config.StoreDir set, completed results additionally persist to disk
// (ResultStore: final model via coordinator.ModelStore plus a summary
// sidecar) and rehydrate into the cache on boot, surviving restarts.
//
// Coalescing happens before admission: a duplicate arriving between a
// creator's cache insert and its enqueue shares that job's fate, so
// if the enqueue is then rejected (queue full) the duplicate's job
// reads as failed with the queue-full cause — an honest outcome for
// an async API; resubmitting evicts and retries it.
//
// # Concurrency and shutdown
//
// Submissions beyond the queue bound are rejected with 503 rather than
// accepted unboundedly, and a token bucket rate-limits POST /runs with
// 429. Each job runs under a per-job context (timeout + cancel); every
// scheme threads that context through its training loops
// via hadfl.RunContext and aborts within about one device step. A
// custom Runner that ignores its context is abandoned instead after a
// short grace (the worker moves on, the run's late result is
// discarded). Close drains nothing: queued jobs are marked canceled
// immediately and running jobs get a grace period before their
// contexts are cut.
package serve
