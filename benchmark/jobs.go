package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"hadfl"
	"hadfl/internal/serve"
)

// Seed streams: every job seed the programs under test see is derived
// from the workload seed, and the streams never overlap, so a warm-up
// job can never turn a measured submission into a cache hit.
const (
	streamWarmUp = iota
	streamWindow
	streamCorpus
)

// deriveSeed returns the i-th job seed of a stream. Seeds are positive
// (0 would mean "default") and distinct for i < 2^20.
func deriveSeed(seed int64, stream, i int) int64 {
	return (seed&0x7fffffff)<<24 | int64(stream)<<20 | int64(i+1)
}

// tinyJobFloor is the accuracy every tiny job must exceed: guessing
// among the ten classes scores 0.10, and the lowest of 4480 jobs over
// all schemes scored 0.38.
const tinyJobFloor = 0.25

// minLocalReruns is how many served jobs are run again in this process
// and compared bit for bit.
const minLocalReruns = 20

// nominalJobTail is the tail percentile of job latency a full window
// supports (≥ 200 jobs leave ten beyond p95).
const nominalJobTail = 95

// servedJob is one job's journey as the client saw it.
type servedJob struct {
	spec                     jobSpec
	id                       string
	sent, posted, seen, done time.Time // POST sent, POST answered, terminal event seen, curve verified
	status                   serve.JobStatus
}

// submitAndFollow drives one job end to end: POST /runs, follow the
// event stream to the terminal event, fetch the full curve, check it.
func submitAndFollow(ctx context.Context, hc *http.Client, base string, spec jobSpec) (*servedJob, error) {
	j := &servedJob{spec: spec, sent: time.Now()}
	code, body, err := post(ctx, hc, base+"/runs", spec.body())
	j.posted = time.Now()
	if err != nil {
		return j, fmt.Errorf("POST /runs: %w", err)
	}
	if code != http.StatusAccepted {
		// 200 would be a cache hit on what must be a fresh
		// fingerprint; 429 and 503 are refusals.
		return j, fmt.Errorf("POST /runs: status %d: %s", code, body)
	}
	var accepted serve.JobStatus
	if err := json.Unmarshal(body, &accepted); err != nil {
		return j, fmt.Errorf("POST /runs: %w", err)
	}
	j.id = accepted.ID
	state, seen, err := followEvents(ctx, hc, base, j.id)
	if err != nil {
		return j, err
	}
	j.seen = seen
	if state != serve.StateDone {
		return j, fmt.Errorf("job %s ended %s", j.id, state)
	}
	code, body, err = get(ctx, hc, base+"/runs/"+j.id+"?curve=1")
	if err != nil {
		return j, fmt.Errorf("GET curve: %w", err)
	}
	if code != http.StatusOK {
		return j, fmt.Errorf("GET curve: status %d", code)
	}
	if err := json.Unmarshal(body, &j.status); err != nil {
		return j, fmt.Errorf("GET curve: %w", err)
	}
	if err := checkStatus(&j.status, j.id, tinyJobFloor); err != nil {
		return j, fmt.Errorf("job %s: %w", j.id, err)
	}
	j.done = time.Now()
	return j, nil
}

// scrapeFleet reads the server's /stats and the sum of the workers'
// /metrics.
func scrapeFleet(ctx context.Context, hc *http.Client, f *fleet, rec *recorder) (srv, wrk counters, err error) {
	t0 := time.Now()
	snap, err := scrapeStats(ctx, hc, f.base)
	if err != nil {
		return nil, nil, err
	}
	rec.add(0, "scrape", "benchmark.scrape", "GET /stats", t0, time.Now())
	wrk = make(counters)
	for _, base := range f.workerHTTP {
		t0 := time.Now()
		m, err := scrapeProm(ctx, hc, base)
		if err != nil {
			return nil, nil, err
		}
		rec.add(0, "scrape", "benchmark.scrape", "GET /metrics", t0, time.Now())
		wrk.add(m)
	}
	return countersOf(snap), wrk, nil
}

// runDispatchJobs times real jobs end to end through the real
// binaries: hadfl-serve dispatching over loopback TCP to one
// hadfl-worker per processor, driven by as many closed-loop clients, so
// that a job never waits for a worker.
func runDispatchJobs(ctx context.Context, e *runEnv) (*outcome, error) {
	out := &outcome{Workload: wlDispatch, Notes: make(map[string]any)}
	hc := newHTTPClient(2 * e.nproc)
	defer hc.CloseIdleConnections()

	// Set-up: boot the fleet, wait for the workers to register, learn
	// the schemes, run one warm-up job per worker.
	var (
		f       *fleet
		schemes []string
	)
	defer func() { f.stop() }()
	var err error
	out.SetupS, err = measureSetup(e.setups, func(i int) error {
		var err error
		if f, err = startFleet(ctx, e.binDir, true, e.nproc); err != nil {
			return err
		}
		if schemes, err = fetchSchemes(ctx, hc, f.base); err != nil {
			return err
		}
		warm := closedLoop(realClock{}, e.nproc, setupWindow, e.nproc, func(_, k int) bool {
			_, err := submitAndFollow(ctx, hc, f.base, tinyJob(schemes[k%len(schemes)], deriveSeed(e.seed, streamWarmUp, i*e.nproc+k)))
			return err == nil
		})
		if t := tallyOf(warm); t.Failed > 0 {
			return fmt.Errorf("%d of %d warm-up jobs failed: %s", t.Failed, t.Sent, f.serve.stderrTail())
		}
		return nil
	}, func() { f.stop() })
	if err != nil {
		return nil, err
	}

	var before, beforeW counters
	if e.rec != nil {
		if before, beforeW, err = scrapeFleet(ctx, hc, f, e.rec); err != nil {
			return nil, err
		}
	}

	var mu sync.Mutex
	var jobs []*servedJob
	samples := closedLoop(realClock{}, e.nproc, e.window, 0, func(_, i int) bool {
		j, err := submitAndFollow(ctx, hc, f.base, tinyJob(schemes[i%len(schemes)], deriveSeed(e.seed, streamWindow, i)))
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			out.fail("%v", err)
			return false
		}
		jobs = append(jobs, j)
		return true
	})
	if err := f.checkAlive(); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	out.Load = tallyOf(samples)
	out.Attempted = out.Load.Sent
	out.Goodput = out.Load.goodput()
	if out.Latency, err = summarize(okLatencies(samples), nominalJobTail); err != nil {
		return nil, err
	}

	var after, afterW counters
	if e.rec != nil {
		if after, afterW, err = scrapeFleet(ctx, hc, f, e.rec); err != nil {
			return nil, err
		}
	}
	if out.PeakRSSMB, err = f.peakRSSMB(); err != nil {
		return nil, err
	}
	f.stop()

	mismatches, err := rerunLocally(ctx, e, out, jobs)
	if err != nil {
		return nil, err
	}

	if e.rec != nil {
		for _, j := range jobs {
			id := e.rec.reserve()
			e.rec.add(id, j.id, "http.post", "POST /runs", j.sent, j.posted)
			e.rec.add(id, j.id, "http.events", "GET /runs/{id}/events", j.posted, j.seen)
			e.rec.add(id, j.id, "http.curve", "GET /runs/{id}?curve=1", j.seen, j.done)
			e.rec.finish(id, 0, j.id, "client.job", j.spec.Scheme, j.sent, j.done)
		}
		out.Reconcile, out.Layer = reconcile(out, jobs, after.sub(before), afterW.sub(beforeW))
		out.Layer["hadfl.golden_mismatches"] = float64(mismatches)
		out.Layer["dispatch.job_latency_p50_s"] = out.Latency.P50
		out.Layer["dispatch.job_latency_tail_s"] = out.Latency.Tail
		out.Layer["dispatch.jobs_per_s"] = out.Goodput
	}
	return out, nil
}

// setupWindow bounds set-up work (warm-up jobs, corpus population)
// that is limited by count, not by time.
const setupWindow = 2 * time.Minute

// rerunLocally picks a seeded sample of the served jobs, runs each
// again in this process with hadfl.RunContext and requires the served
// summary and curve to equal the local result exactly. A difference is
// a failed operation. It returns how many local results differ from the
// committed golden hashes.
func rerunLocally(ctx context.Context, e *runEnv, out *outcome, jobs []*servedJob) (goldenMismatches int, err error) {
	// Sampling among the first hundred keeps the sample, and so the
	// golden comparison, the same whatever the window's throughput.
	pool := min(len(jobs), 100)
	n := min(pool, minLocalReruns)
	// Clients append as they finish; order by seed (the order of
	// generation) so that the sample does not depend on which client
	// won a race.
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].spec.Opts.Seed < jobs[b].spec.Opts.Seed })
	rng := rand.New(rand.NewSource(e.seed))
	for _, k := range rng.Perm(pool)[:n] {
		j := jobs[k]
		res, err := hadfl.RunContext(ctx, j.spec.Scheme, j.spec.Opts)
		if err != nil {
			if ctx.Err() != nil {
				return 0, ctx.Err()
			}
			out.fail("local re-run of %s: %v", j.id, err)
			continue
		}
		if err := sameAsLocal(j.status.Result, res); err != nil {
			out.fail("job %s differs from the local run: %v", j.id, err)
		}
		if fp, err := hadfl.Fingerprint(j.spec.Scheme, j.spec.Opts); err != nil || fp != j.id {
			out.fail("job id %s is not the fingerprint %s (%v)", j.id, fp, err)
		}
		key := goldenKey(j.spec.Scheme, j.spec.Opts)
		if e.golden.mismatch(wlDispatch, key, paramsHash(res.FinalParams)) {
			goldenMismatches++
			fmt.Fprintf(os.Stderr, "benchmark: %s: golden mismatch: %s\n", wlDispatch, key)
		}
	}
	out.Notes["local_reruns"] = n
	return goldenMismatches, nil
}

// reconcileLimit is the share of mean job latency the layers may leave
// unattributed before the traced run is refused.
const reconcileLimit = 0.05

// reconciliation splits the mean job latency into the parts the
// programs and the client each measured on their own, and the rest.
type reconciliation struct {
	Jobs              int     `json:"jobs"`
	JobLatencyMeanS   float64 `json:"job_latency_mean_s"`
	PostMeanS         float64 `json:"serve.post_mean_s"`
	QueueWaitMeanS    float64 `json:"serve.queue_wait_mean_s"`
	OverheadMeanS     float64 `json:"dispatch.overhead_mean_s"`
	WorkerRunMeanS    float64 `json:"worker.run_mean_s"`
	NotifyLagMeanS    float64 `json:"serve.notify_lag_mean_s"`
	CurveFetchMeanS   float64 `json:"serve.curve_fetch_mean_s"`
	UnattributedS     float64 `json:"unattributed_s"`
	UnattributedShare float64 `json:"unattributed_share"`
	OK                bool    `json:"ok"`
}

// reconcile builds the table, and the per-layer metrics that share its
// sources, from the scrape deltas across the window (srv: hadfl-serve's
// /stats, wrk: the workers' /metrics summed) and the client's own
// stamps.
func reconcile(out *outcome, jobs []*servedJob, srv, wrk counters) (*reconciliation, map[string]float64) {
	r := &reconciliation{Jobs: len(jobs)}
	var latency, notify, curve, overhead []float64
	for _, j := range jobs {
		total := j.done.Sub(j.sent).Seconds()
		latency = append(latency, total)
		st := j.status
		if st.Finished != nil && st.Started != nil {
			notify = append(notify, j.seen.Sub(*st.Finished).Seconds())
			overhead = append(overhead, total-st.Started.Sub(st.Created).Seconds()-st.Finished.Sub(*st.Started).Seconds())
		}
		curve = append(curve, j.done.Sub(j.seen).Seconds())
	}
	r.JobLatencyMeanS = mean(latency)
	r.PostMeanS = srv.histMean("http_request_seconds_post_runs")
	r.QueueWaitMeanS = srv.histMean("queue_wait_seconds")
	rttMeanS := srv.histMean("dispatch_rtt_seconds")
	r.WorkerRunMeanS = wrk.histMean("worker_run_seconds")
	r.OverheadMeanS = rttMeanS - r.WorkerRunMeanS
	r.NotifyLagMeanS = mean(notify)
	r.CurveFetchMeanS = mean(curve)
	parts := r.PostMeanS + r.QueueWaitMeanS + r.OverheadMeanS + r.WorkerRunMeanS + r.NotifyLagMeanS + r.CurveFetchMeanS
	r.UnattributedS = r.JobLatencyMeanS - parts
	r.UnattributedShare = r.UnattributedS / r.JobLatencyMeanS
	r.OK = r.UnattributedShare <= reconcileLimit && r.UnattributedShare >= -reconcileLimit
	// Every measured job must be in both deltas, or the means are of
	// different populations.
	for name, n := range map[string]float64{
		"dispatch_rtt_seconds_count": srv["dispatch_rtt_seconds_count"],
		"worker_run_seconds_count":   wrk["worker_run_seconds_count"],
		"queue_wait_seconds_count":   srv["queue_wait_seconds_count"],
	} {
		if int(n) != out.Load.Sent {
			out.fail("%s grew by %d across the window, %d jobs were sent", name, int(n), out.Load.Sent)
		}
	}
	return r, map[string]float64{
		"dispatch.rtt_mean_s":          rttMeanS,
		"worker.run_mean_s":            r.WorkerRunMeanS,
		"dispatch.overhead_mean_s":     r.OverheadMeanS,
		"dispatch.wire_bytes_per_job":  srv.histMean("dispatch_result_frame_bytes"),
		"dispatch.retries":             srv["dispatch_retries_total"],
		"dispatch.busy_rejections":     srv["dispatch_busy_rejections_total"],
		"dispatch.local_fallbacks":     srv["dispatch_local_fallback_total"],
		"dispatch.hedges":              srv["dispatch_hedges_total"],
		"dispatch.unattributed_share":  r.UnattributedShare,
		"serve.post_mean_s":            r.PostMeanS,
		"serve.events_mean_s":          srv.histMean("http_request_seconds_get_runs_id_events"),
		"serve.queue_wait_mean_s":      r.QueueWaitMeanS,
		"serve.run_duration_mean_s":    srv.histMean("run_duration_seconds"),
		"serve.notify_lag_mean_s":      r.NotifyLagMeanS,
		"serve.curve_fetch_mean_s":     r.CurveFetchMeanS,
		"serve.client_overhead_mean_s": mean(overhead),
		"serve.cache_misses":           srv["cache_misses_total"],
	}
}

func (r *reconciliation) print() {
	fmt.Fprintf(os.Stderr, "\nmean job latency over %d jobs: %.6f s\n", r.Jobs, r.JobLatencyMeanS)
	for _, row := range []struct {
		name string
		v    float64
	}{
		{"serve.post_mean_s", r.PostMeanS},
		{"serve.queue_wait_mean_s", r.QueueWaitMeanS},
		{"dispatch.overhead_mean_s", r.OverheadMeanS},
		{"worker.run_mean_s", r.WorkerRunMeanS},
		{"serve.notify_lag_mean_s", r.NotifyLagMeanS},
		{"serve.curve_fetch_mean_s", r.CurveFetchMeanS},
		{"unattributed", r.UnattributedS},
	} {
		fmt.Fprintf(os.Stderr, "  %-28s %10.6f s  %6.2f%%\n", row.name, row.v, 100*row.v/r.JobLatencyMeanS)
	}
}
