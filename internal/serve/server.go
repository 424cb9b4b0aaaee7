package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"hadfl"
	"hadfl/internal/metrics"
	"hadfl/internal/serve/dispatch"
	"hadfl/internal/trace"
)

// Config assembles a Server.
type Config struct {
	// Workers / QueueDepth / JobTimeout size the pool (see PoolConfig).
	Workers    int
	QueueDepth int
	JobTimeout time.Duration
	// RatePerSec / Burst shape the POST /runs token bucket; RatePerSec
	// <= 0 disables limiting.
	RatePerSec float64
	Burst      int
	// RunParallelism is the per-run device concurrency applied to
	// submissions that leave options.parallelism unset. The default 0
	// keeps runs sequential (1): the pool already runs Workers jobs
	// concurrently, so per-run parallelism is an explicit opt-in to
	// trade job throughput for single-run latency. Parallelism never
	// changes results, so it does not participate in the cache key.
	RunParallelism int
	// CacheMaxEntries bounds the result cache (LRU eviction of
	// terminal jobs past the cap; <= 0 means unbounded).
	CacheMaxEntries int
	// StoreDir, when non-empty, persists completed results there (final
	// model + summary keyed by fingerprint, via ResultStore) and
	// rehydrates them into the cache on boot, so identical submissions
	// are served without retraining across restarts.
	StoreDir string
	// Runner overrides the run executor (tests). Default DefaultRunner.
	Runner Runner
	// Metrics receives service telemetry. Default: private registry.
	Metrics *metrics.Registry
	// Tracer collects per-job spans, served at GET /debug/traces. Pass
	// the same tracer to a dispatch backend so remote spans stitch into
	// the same ring. Default: a private trace.DefaultCapacity ring, so
	// the endpoint always works.
	Tracer *trace.Tracer
	// Logger receives structured lifecycle events (job start/finish,
	// failures). Default: discard.
	Logger *slog.Logger
}

// Server wires cache, pool, limiter and metrics behind an
// http.Handler. See the package documentation for the API.
type Server struct {
	cfg     Config
	reg     *metrics.Registry
	tracer  *trace.Tracer
	cache   *Cache
	pool    *Pool
	limiter *TokenBucket
	store   *ResultStore // nil unless cfg.StoreDir is set
	savers  sync.WaitGroup
	start   time.Time
	mux     *http.ServeMux
}

// Tracer returns the server's span ring (for sharing with a dispatch
// backend or inspecting in tests).
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// New builds a Server and starts its worker pool. When cfg.StoreDir is
// set, previously persisted results are rehydrated into the cache
// before the server accepts requests; an unusable store directory is
// the only error path.
func New(cfg Config) (*Server, error) {
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = trace.NewTracer(0)
	}
	if cfg.Logger == nil {
		cfg.Logger = trace.NopLogger()
	}
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Metrics,
		tracer:  cfg.Tracer,
		cache:   NewBoundedCache(cfg.Metrics, cfg.CacheMaxEntries),
		limiter: NewTokenBucket(cfg.RatePerSec, cfg.Burst),
		start:   time.Now(),
		mux:     http.NewServeMux(),
	}
	if cfg.StoreDir != "" {
		store, err := NewResultStore(cfg.StoreDir, cfg.Metrics)
		if err != nil {
			return nil, err
		}
		s.store = store
		for _, j := range store.Load() {
			s.cache.GetOrCreate(j.ID, func() *Job { return j })
		}
	}
	s.pool = NewPool(PoolConfig{
		Workers:    cfg.Workers,
		QueueDepth: cfg.QueueDepth,
		JobTimeout: cfg.JobTimeout,
		Runner:     cfg.Runner,
		Metrics:    cfg.Metrics,
		Tracer:     cfg.Tracer,
		Logger:     cfg.Logger,
	})
	s.mux.HandleFunc("POST /runs", s.instrument("post_runs", s.handleSubmit))
	s.mux.HandleFunc("GET /runs/{id}", s.instrument("get_runs_id", s.handleStatus))
	s.mux.HandleFunc("DELETE /runs/{id}", s.instrument("delete_runs_id", s.handleCancel))
	s.mux.HandleFunc("GET /runs/{id}/events", s.instrument("get_runs_id_events", s.handleEvents))
	s.mux.HandleFunc("GET /schemes", s.instrument("get_schemes", s.handleSchemes))
	s.mux.HandleFunc("GET /healthz", s.instrument("get_healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /stats", s.instrument("get_stats", s.handleStats))
	s.mux.HandleFunc("GET /metrics", s.instrument("get_metrics", metrics.Handler(cfg.Metrics, s.start).ServeHTTP))
	s.mux.HandleFunc("GET /debug/traces", s.instrument("get_debug_traces", s.tracer.Handler().ServeHTTP))
	return s, nil
}

// instrument wraps an endpoint handler with the canonical per-endpoint
// latency histogram (http_request_seconds_<route>) and the shared
// response-byte counter. route is a short snake_case endpoint key, not
// the raw mux pattern, so the metric name is computed once here and the
// per-request path does no string building. For the SSE endpoint the
// observed latency is the whole stream's lifetime, by design.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	name := "http_request_seconds_" + metrics.SanitizeName(route)
	return func(w http.ResponseWriter, r *http.Request) {
		cw := countingWriter{ResponseWriter: w}
		t0 := time.Now()
		h(&cw, r)
		//lint:ignore metriccatalog name is documented prefix + SanitizeName, precomputed at route registration
		s.reg.ObserveSince(name, t0)
		s.reg.Add("http_response_bytes_total", cw.bytes)
	}
}

// countingWriter counts body bytes on their way out. It implements
// http.Flusher unconditionally (forwarding when the underlying writer
// supports it) so the SSE handler's flusher assertion still holds
// through the instrumentation layer.
type countingWriter struct {
	http.ResponseWriter
	bytes int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.bytes += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Handler returns the service's HTTP entry point.
func (s *Server) Handler() http.Handler { return s.mux }

// Close shuts the pool down (see Pool.Close), then waits for any
// in-flight result persistence: once every job is terminal the pending
// saves are short file writes, so a completed run is never lost to a
// shutdown race.
func (s *Server) Close(ctx context.Context) error {
	err := s.pool.Close(ctx)
	s.savers.Wait()
	return err
}

// Submit is the programmatic submission path behind POST /runs:
// fingerprint, coalesce through the cache, enqueue on a miss. cached
// reports whether an existing job (in any live state, or done) was
// reused. On enqueue failure the fresh job is finished as failed so a
// later identical submission retries it.
func (s *Server) Submit(scheme string, opts hadfl.Options) (job *Job, cached bool, err error) {
	fp, err := hadfl.Fingerprint(scheme, opts)
	if err != nil {
		return nil, false, err
	}
	if opts.Parallelism <= 0 {
		// Unset (or nonsense-negative) means the server default;
		// unlike the library (where 0 is GOMAXPROCS), a serve job
		// defaults to sequential because the pool already runs jobs
		// concurrently.
		if s.cfg.RunParallelism > 0 {
			opts.Parallelism = s.cfg.RunParallelism
		} else {
			opts.Parallelism = 1
		}
	}
	job, cached = s.cache.GetOrCreate(fp, func() *Job { return newJob(fp, scheme, opts) })
	if cached {
		return job, true, nil
	}
	if err := s.pool.Enqueue(job); err != nil {
		job.finish(nil, &JobError{
			JobID: fp, Scheme: scheme, Options: opts,
			Path: []string{"submit"}, Err: err,
			Canceled: errors.Is(err, ErrShuttingDown),
		})
		return nil, false, err
	}
	if s.store != nil {
		s.savers.Add(1)
		go func() {
			defer s.savers.Done()
			<-job.Done()
			if res, jerr := job.Result(); jerr == nil && res != nil {
				_ = s.store.Save(job, res)
			}
		}()
	}
	return job, false, nil
}

// handleSchemes lists the registered training schemes; new schemes
// appear here (and become submittable) without any serve-layer change.
func (s *Server) handleSchemes(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"schemes": hadfl.Schemes()})
}

// RunRequest is the POST /runs body. Options decode straight into
// hadfl.Options, whose JSON tags are the wire form; the progress
// callback is not part of it (progress flows through /events instead).
// Parallelism is a throughput hint only — it never changes the run's
// result and is excluded from the cache fingerprint, so requests
// differing only there coalesce.
type RunRequest struct {
	Scheme  string        `json:"scheme"`
	Options hadfl.Options `json:"options"`
}

// RunOptions is the options half of a RunRequest under its serve-layer
// name, kept so clients that spell the request with serve's types
// compile unchanged.
type RunOptions = hadfl.Options

// Cache dispositions reported on the JobStatus "cache" field: where
// this response's payload came from, consistently across POST /runs
// and GET /runs/{id}.
//
//   - CacheHit: served from the completed-result cache (a POST whose
//     result already existed, or any GET of a done job).
//   - CacheCoalesced: the submission joined an identical in-flight run
//     instead of starting its own.
//   - CacheMiss: nothing cached — a fresh submission that enqueued, or
//     a GET of a job with no completed result yet (failed and canceled
//     jobs also read as miss: their slot reruns on resubmission).
const (
	CacheHit       = "hit"
	CacheMiss      = "miss"
	CacheCoalesced = "coalesced"
)

// JobStatus is the wire form of a job.
type JobStatus struct {
	ID          string     `json:"id"`
	Scheme      string     `json:"scheme"`
	State       State      `json:"state"`
	Cached      bool       `json:"cached,omitempty"`
	Cache       string     `json:"cache,omitempty"`
	Created     time.Time  `json:"created"`
	Started     *time.Time `json:"started,omitempty"`
	Finished    *time.Time `json:"finished,omitempty"`
	DurationSec float64    `json:"durationSec,omitempty"`
	Error       string     `json:"error,omitempty"`
	Timeout     bool       `json:"timeout,omitempty"`
	Canceled    bool       `json:"canceled,omitempty"`
	// Dispatch carries the failure journey when a dispatched run failed:
	// which dispatcher owned it, every worker attempt with durations,
	// the last streamed round, and whether the local fallback ran — so a
	// POST /runs failure is debuggable from the response alone.
	Dispatch *DispatchStatus `json:"dispatch,omitempty"`
	Result   *RunSummary     `json:"result,omitempty"`
}

// DispatchStatus is the wire form of a dispatch.DispatchError journey.
type DispatchStatus struct {
	Dispatcher    string                  `json:"dispatcher"`
	Attempts      []DispatchAttemptStatus `json:"attempts,omitempty"`
	LastRound     int                     `json:"lastRound"`
	LocalFallback bool                    `json:"localFallback,omitempty"`
}

// DispatchAttemptStatus is one worker attempt of the journey.
type DispatchAttemptStatus struct {
	Worker      int     `json:"worker"`
	Hedge       bool    `json:"hedge,omitempty"`
	DurationSec float64 `json:"durationSec"`
	Error       string  `json:"error,omitempty"`
}

// dispatchStatus extracts the journey from a job error's cause chain;
// nil when the failure did not come from the dispatcher.
func dispatchStatus(jerr *JobError) *DispatchStatus {
	var derr *dispatch.DispatchError
	if jerr == nil || !errors.As(jerr.Err, &derr) {
		return nil
	}
	ds := &DispatchStatus{
		Dispatcher:    derr.Dispatcher,
		LastRound:     derr.LastRound,
		LocalFallback: derr.Fallback,
	}
	for _, a := range derr.Attempts {
		ds.Attempts = append(ds.Attempts, DispatchAttemptStatus{
			Worker:      a.Worker,
			Hedge:       a.Hedge,
			DurationSec: a.Duration.Seconds(),
			Error:       a.Err,
		})
	}
	return ds
}

// RunSummary is a status's "result" object: the hadfl.Result wire
// form plus the curve length, and the full curve only when requested
// (?curve=1).
type RunSummary struct {
	hadfl.Result
	CurvePoints int             `json:"curvePoints"`
	Curve       []metrics.Point `json:"curve,omitempty"`
}

func (s *Server) status(j *Job, disp string, withCurve bool) JobStatus {
	v := j.snapshot()
	st := JobStatus{
		ID:      j.ID,
		Scheme:  j.Scheme,
		State:   v.state,
		Cached:  disp == CacheHit || disp == CacheCoalesced,
		Cache:   disp,
		Created: j.Created,
	}
	if !v.started.IsZero() {
		started := v.started
		st.Started = &started
		if !v.finished.IsZero() {
			finished := v.finished
			st.Finished = &finished
		}
		st.DurationSec = v.running.Seconds()
	}
	if v.jerr != nil {
		st.Error = v.jerr.Error()
		st.Timeout = v.jerr.IsTimeout()
		st.Canceled = v.jerr.IsCanceled()
		st.Dispatch = dispatchStatus(v.jerr)
	}
	if v.result != nil {
		sum := &RunSummary{Result: *v.result}
		if v.result.Series != nil {
			sum.CurvePoints = v.result.Series.Len()
			if withCurve {
				sum.Curve = v.result.Series.Points
			}
		}
		st.Result = sum
	}
	return st
}

// statusBytes returns the pre-encoded terminal wire form of j, lazily
// encoding it on first use. ok is false while the job is live (its
// status still changes, so callers fall back to Server.status). The
// disposition a terminal job reports is a function of its state alone —
// done jobs are cache hits everywhere they are served, failed and
// canceled ones misses — so one encoding per curve variant serves every
// endpoint. Concurrent first encodes may both marshal; the bytes are
// identical, so whichever Store lands is fine.
func (s *Server) statusBytes(j *Job, withCurve bool) (data []byte, ok bool) {
	idx := 0
	if withCurve {
		idx = 1
	}
	if b := j.enc[idx].Load(); b != nil {
		return *b, true
	}
	state := j.State()
	if !state.Terminal() {
		return nil, false
	}
	disp := CacheMiss
	if state == StateDone {
		disp = CacheHit
	}
	// A local, not the named return: storing &data would make the
	// return slot escape and put one allocation back on the fast path.
	encoded, err := json.Marshal(s.status(j, disp, withCurve))
	if err != nil {
		return nil, false
	}
	encoded = append(encoded, '\n') // byte-identical to json.Encoder.Encode
	j.enc[idx].Store(&encoded)
	return encoded, true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.limiter.Allow() {
		s.reg.Inc("rate_limited_total")
		httpError(w, http.StatusTooManyRequests, "rate limit exceeded")
		return
	}
	var req RunRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	// One JSON value per request: a second value (or any non-space
	// trailing byte) would otherwise be silently ignored.
	if _, err := dec.Token(); err != io.EOF {
		httpError(w, http.StatusBadRequest, "bad request body: data after the JSON value")
		return
	}
	if req.Scheme == "" {
		req.Scheme = hadfl.SchemeHADFL
	}
	job, cached, err := s.Submit(req.Scheme, req.Options)
	switch {
	case err == nil:
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrShuttingDown):
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	default:
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !cached {
		writeJSON(w, http.StatusAccepted, s.status(job, CacheMiss, false))
		return
	}
	if job.State() == StateDone {
		if data, ok := s.statusBytes(job, false); ok {
			writeRawJSON(w, http.StatusOK, data)
			return
		}
		writeJSON(w, http.StatusOK, s.status(job, CacheHit, false))
		return
	}
	writeJSON(w, http.StatusOK, s.status(job, CacheCoalesced, false))
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.cache.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, ErrUnknownJob.Error())
		return
	}
	withCurve := curveRequested(r.URL.RawQuery)
	if data, ok := s.statusBytes(job, withCurve); ok {
		writeRawJSON(w, http.StatusOK, data)
		return
	}
	disp := CacheMiss
	if job.State() == StateDone {
		disp = CacheHit
	}
	writeJSON(w, http.StatusOK, s.status(job, disp, withCurve))
}

// curveRequested reports whether the raw query string carries curve=1.
// The steady-state poll path hits this on every request, so it scans
// the raw string instead of materializing a url.Values map; the curve
// flag needs no unescaping ("curve=1" is its own escaped form).
func curveRequested(raw string) bool {
	for raw != "" {
		kv := raw
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			kv, raw = raw[:i], raw[i+1:]
		} else {
			raw = ""
		}
		if kv == "curve=1" {
			return true
		}
	}
	return false
}

// handleCancel aborts a job on the client's behalf: a queued job turns
// Canceled immediately, a running one has its context cut and reaches
// Canceled within about one device step; canceling a terminal job is a
// no-op. 202 acknowledges the request, not the completed cancellation —
// poll GET /runs/{id} for the terminal state. Like every terminal
// failure, a canceled job is evicted (and rerun) by the next identical
// submission.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.cache.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, ErrUnknownJob.Error())
		return
	}
	job.Cancel(ErrCanceledByClient)
	s.reg.Inc("cancels_requested_total")
	writeJSON(w, http.StatusAccepted, s.status(job, CacheMiss, false))
}

// handleEvents streams a job's progress as Server-Sent Events: the
// full replay first, then live events until the job finishes or the
// client disconnects. Event names are the Event.Type values ("state",
// "round"); payloads are the Event JSON.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.cache.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, ErrUnknownJob.Error())
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	s.reg.Inc("sse_streams_total")

	replay, live, cancel := job.Subscribe()
	defer cancel()
	for _, e := range replay {
		if err := writeSSE(w, e); err != nil {
			return
		}
	}
	flusher.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case e, ok := <-live:
			if !ok {
				return
			}
			if err := writeSSE(w, e); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptimeSec": time.Since(s.start).Seconds(),
		"jobs":      s.cache.Len(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	metrics.SetRuntimeGauges(s.reg, s.start)
	writeJSON(w, http.StatusOK, map[string]any{
		"uptimeSec":  time.Since(s.start).Seconds(),
		"queueDepth": s.pool.QueueDepth(),
		"cacheJobs":  s.cache.Len(),
		"config": map[string]any{
			"workers":       s.pool.cfg.Workers,
			"queueDepth":    s.pool.cfg.QueueDepth,
			"jobTimeoutSec": s.cfg.JobTimeout.Seconds(),
			"ratePerSec":    s.cfg.RatePerSec,
			"burst":         s.cfg.Burst,
		},
		"metrics": s.reg.Snapshot(),
	})
}

func writeSSE(w http.ResponseWriter, e Event) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, data)
	return err
}

// jsonBuf is a pooled buffer with its encoder pre-bound, so the
// response-encoding path allocates neither on steady state.
type jsonBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonBufPool = sync.Pool{New: func() any {
	jb := &jsonBuf{}
	jb.enc = json.NewEncoder(&jb.buf)
	return jb
}}

// jsonBufMaxRecycle caps the buffer size returned to the pool; the
// occasional huge curve payload should not pin its footprint forever.
const jsonBufMaxRecycle = 1 << 16

// writeJSON encodes v through a pooled buffer (one write syscall, no
// per-request encoder allocation) and sends it with the given code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	jb := jsonBufPool.Get().(*jsonBuf)
	jb.buf.Reset()
	if err := jb.enc.Encode(v); err != nil {
		jsonBufPool.Put(jb)
		httpError(w, http.StatusInternalServerError, "encoding response: "+err.Error())
		return
	}
	writeRawJSON(w, code, jb.buf.Bytes())
	if jb.buf.Cap() <= jsonBufMaxRecycle {
		jsonBufPool.Put(jb)
	}
}

// writeRawJSON sends already-encoded JSON bytes (the pre-encoded
// terminal-status path and writeJSON's buffered output).
func writeRawJSON(w http.ResponseWriter, code int, data []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(code)
	_, _ = w.Write(data)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
