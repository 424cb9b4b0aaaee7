package dispatch

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"hadfl"
	"hadfl/internal/metrics"
	"hadfl/internal/p2p"
	"hadfl/internal/trace"
)

// Runner executes one training run; it matches the serve layer's
// runner seam so the same function type plugs into the pool and the
// dispatcher, and so tests can substitute instrumented runs.
type Runner func(ctx context.Context, scheme string, opts hadfl.Options, onRound func(hadfl.RoundUpdate)) (*hadfl.Result, error)

// localRunner executes through the scheme registry in-process — the
// worker's default executor and the dispatcher's local fallback.
func localRunner(ctx context.Context, scheme string, opts hadfl.Options, onRound func(hadfl.RoundUpdate)) (*hadfl.Result, error) {
	opts.OnRound = onRound
	return hadfl.RunContext(ctx, scheme, opts)
}

// WorkerConfig assembles a Worker.
type WorkerConfig struct {
	// Transport is the worker's endpoint on the dispatch network.
	Transport p2p.Transport
	// Capacity bounds concurrent runs; requests beyond it are rejected
	// with a busy error frame (the dispatcher retries elsewhere).
	// Default 1.
	Capacity int
	// AddPeer, when non-nil, registers a dispatcher's dial-back address
	// learned from its hello frame (TCPNode.AddPeer); transports with
	// id-based routing leave it nil.
	AddPeer func(id int, addr string)
	// Runner executes runs. Default: the scheme registry in-process.
	Runner Runner
	// RecvTimeout is the serve loop's poll granularity (how quickly
	// Serve notices its context is done). Default 200ms.
	RecvTimeout time.Duration
	// Metrics receives worker telemetry. Default: private registry.
	Metrics *metrics.Registry
	// Tracer receives this worker's run spans locally (the same spans
	// also ship back to the dispatcher on terminal frames). Default:
	// none.
	Tracer *trace.Tracer
	// Logger receives run lifecycle events. Default: discard.
	Logger *slog.Logger
}

// Worker executes dispatched runs: it registers with dispatchers that
// hello it, acks their heartbeats, runs requests through the scheme
// registry (streaming round telemetry back), and aborts runs
// cooperatively when a cancel frame arrives or the request's deadline
// expires.
type Worker struct {
	cfg WorkerConfig
	reg *metrics.Registry
	log *slog.Logger
	// now is the injected clock (run-duration stamps only); the walltime
	// lint analyzer keeps this package off time.Now.
	now func() time.Time

	mu      sync.Mutex
	running map[runKey]context.CancelFunc
	wg      sync.WaitGroup
}

// runKey identifies an in-flight run. Sequence numbers are unique only
// within one dispatcher instance, and transport node ids may recur
// across serve processes (every hadfl-serve dials from id 0), so the
// request's random instance token does the real disambiguation — a
// restarted dispatcher cannot collide with or cancel the runs of the
// one it replaced.
type runKey struct {
	from  int
	token string
	seq   int
}

// NewWorker builds a Worker; call Serve to start handling frames.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("dispatch: worker needs a transport")
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1
	}
	if cfg.Runner == nil {
		cfg.Runner = localRunner
	}
	if cfg.RecvTimeout <= 0 {
		cfg.RecvTimeout = 200 * time.Millisecond
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Logger == nil {
		cfg.Logger = trace.NopLogger()
	}
	w := &Worker{
		cfg:     cfg,
		reg:     cfg.Metrics,
		log:     cfg.Logger,
		now:     time.Now,
		running: make(map[runKey]context.CancelFunc),
	}
	w.reg.SetGauge("worker_capacity", float64(cfg.Capacity))
	return w, nil
}

// Serve handles frames until ctx is done, then cancels every in-flight
// run, waits for their cooperative aborts and returns ctx.Err(). It
// does not close the transport — its owner does.
func (w *Worker) Serve(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			w.mu.Lock()
			for _, cancel := range w.running {
				cancel()
			}
			w.mu.Unlock()
			w.wg.Wait()
			return err
		}
		m, ok := w.cfg.Transport.Recv(w.cfg.RecvTimeout)
		if !ok {
			continue
		}
		w.handle(ctx, m)
	}
}

// ActiveRuns reports how many runs are executing right now.
func (w *Worker) ActiveRuns() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.running)
}

func (w *Worker) handle(ctx context.Context, m p2p.Message) {
	switch m.Kind {
	case p2p.KindHeartbeat:
		w.reg.Inc("worker_heartbeats_total")
		_ = w.cfg.Transport.Send(p2p.Message{Kind: p2p.KindAck, To: m.From, Round: m.Round})
	case p2p.KindDispatchHello:
		w.handleHello(m)
	case p2p.KindDispatchCancel:
		var cb cancelBody
		if err := decodeBody(m, &cb); err != nil {
			return
		}
		w.mu.Lock()
		cancel := w.running[runKey{m.From, cb.Token, m.Round}]
		w.mu.Unlock()
		if cancel != nil {
			w.reg.Inc("worker_cancels_total")
			cancel()
		}
	case p2p.KindDispatchRequest:
		w.handleRequest(ctx, m)
	default:
		// Data-plane or future kinds: not ours, drop.
		w.reg.Inc("worker_unknown_frames_total")
	}
}

// handleHello registers the dispatcher (learning its dial-back address
// on address-based transports) and acks with this worker's capacity. A
// protocol version mismatch is answered with an error frame — a
// compatible dispatcher never sends one at hello, and an incompatible
// one gets an observable rejection on the wire instead of silence (and
// never a hello ack, so it will not consider this worker live).
func (w *Worker) handleHello(m p2p.Message) {
	var h helloBody
	if err := decodeBody(m, &h); err != nil {
		return
	}
	if h.ReplyAddr != "" && w.cfg.AddPeer != nil {
		w.cfg.AddPeer(m.From, h.ReplyAddr)
	}
	if h.Proto != proto {
		_ = sendFrame(w.cfg.Transport, p2p.KindDispatchError, m.From, m.Round, errorBody{
			Message: fmt.Sprintf("dispatch: protocol version %d, worker speaks %d", h.Proto, proto),
		})
		return
	}
	w.reg.Inc("worker_hellos_total")
	_ = sendFrame(w.cfg.Transport, p2p.KindDispatchHello, m.From, m.Round, helloBody{
		Proto: proto, Capacity: w.cfg.Capacity,
	})
}

// handleRequest admits a run if capacity allows and executes it on its
// own goroutine; every terminal path reports exactly one result or
// error frame carrying the request's sequence number.
func (w *Worker) handleRequest(ctx context.Context, m p2p.Message) {
	reject := func(b errorBody) {
		_ = sendFrame(w.cfg.Transport, p2p.KindDispatchError, m.From, m.Round, b)
	}
	var req requestBody
	if err := decodeBody(m, &req); err != nil {
		// Undecodable request: the token is unknowable, so this is the
		// one rejection that goes out without it.
		reject(errorBody{Message: err.Error()})
		return
	}
	if req.Proto != proto {
		reject(errorBody{Token: req.Token, Message: fmt.Sprintf("dispatch: protocol version %d, worker speaks %d", req.Proto, proto)})
		return
	}
	opts := req.Options
	// The request is content-addressed: re-derive the fingerprint so a
	// canonicalization disagreement (mismatched versions, tampering)
	// fails loudly here instead of caching a wrong result upstream.
	fp, err := hadfl.Fingerprint(req.Scheme, opts)
	if err != nil {
		reject(errorBody{Token: req.Token, Message: err.Error()})
		return
	}
	if fp != req.JobID {
		reject(errorBody{Token: req.Token, Message: fmt.Sprintf("dispatch: fingerprint mismatch: request says %.12s…, worker derives %.12s…", req.JobID, fp)})
		return
	}

	key := runKey{m.From, req.Token, m.Round}
	runCtx := ctx
	var cancel context.CancelFunc
	if req.DeadlineSec > 0 {
		runCtx, cancel = context.WithTimeout(runCtx, time.Duration(req.DeadlineSec*float64(time.Second)))
	} else {
		runCtx, cancel = context.WithCancel(runCtx)
	}
	w.mu.Lock()
	if _, dup := w.running[key]; dup {
		w.mu.Unlock()
		cancel()
		reject(errorBody{Token: req.Token, Message: fmt.Sprintf("dispatch: sequence %d already running", m.Round)})
		return
	}
	if len(w.running) >= w.cfg.Capacity {
		w.mu.Unlock()
		cancel()
		w.reg.Inc("worker_busy_rejections_total")
		w.log.Warn("dispatched run rejected at capacity", "jobID", req.JobID, "capacity", w.cfg.Capacity)
		reject(errorBody{Token: req.Token, Message: fmt.Sprintf("dispatch: worker at capacity %d", w.cfg.Capacity), Busy: true})
		return
	}
	w.running[key] = cancel
	w.reg.SetGauge("worker_running", float64(len(w.running)))
	w.mu.Unlock()

	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		defer cancel()
		w.reg.Inc("worker_runs_total")
		t0 := w.now()
		// The run's spans parent under the dispatcher's propagated span
		// context, so both processes' spans share one TraceID. A Buffer
		// tees everything recorded locally for shipment home on the
		// terminal frame (whatever kind it turns out to be).
		buf := &trace.Buffer{}
		rec := trace.MultiRecorder(w.cfg.Tracer, buf)
		spanCtx := trace.ContextWith(runCtx, req.Trace.spanContext())
		spanCtx, span := trace.Start(spanCtx, rec, "worker.run")
		span.SetAttr("jobID", req.JobID)
		span.SetAttr("scheme", req.Scheme)
		log := w.log.With("jobID", req.JobID, "scheme", req.Scheme, "traceID", span.Context().TraceID)
		log.Info("dispatched run started", "from", m.From, "seq", m.Round)
		var rounds atomic.Int64
		res, err := w.cfg.Runner(spanCtx, req.Scheme, opts, func(u hadfl.RoundUpdate) {
			rounds.Add(1)
			_ = sendFrame(w.cfg.Transport, p2p.KindDispatchRound, m.From, m.Round, roundBody{
				Token: req.Token, Round: u.Round, Time: u.Time, Loss: u.Loss,
				Accuracy: u.Accuracy, Selected: u.Selected, Bypassed: u.Bypassed,
			})
		})
		w.mu.Lock()
		delete(w.running, key)
		w.reg.SetGauge("worker_running", float64(len(w.running)))
		w.mu.Unlock()
		dur := w.now().Sub(t0)
		w.reg.Observe("worker_run_seconds", dur.Seconds())
		span.SetAttr("rounds", fmt.Sprint(rounds.Load()))
		// shipHome ends the run span, drains every span this run
		// recorded and attaches them to the outbound terminal body.
		shipHome := func() *wireTrace {
			span.End()
			return &wireTrace{TraceID: span.Context().TraceID, Spans: buf.Drain()}
		}
		if err != nil {
			canceled := errors.Is(err, context.Canceled)
			if canceled {
				log.Info("dispatched run canceled", "durationSec", dur.Seconds())
			} else {
				log.Error("dispatched run failed", "err", err, "durationSec", dur.Seconds())
			}
			span.SetError(err)
			w.reg.Inc("worker_runs_failed_total")
			reject(errorBody{
				Token:    req.Token,
				Message:  err.Error(),
				Canceled: canceled,
				Timeout:  errors.Is(err, context.DeadlineExceeded),
				Trace:    shipHome(),
			})
			return
		}
		w.reg.Inc("worker_runs_completed_total")
		log.Info("dispatched run completed", "durationSec", dur.Seconds(), "rounds", rounds.Load())
		// The result span times the terminal body's assembly; its JSON
		// and raw64 encoding follow in sendResult, after the span ships.
		_, rspan := trace.Start(spanCtx, rec, "worker.result")
		body := toResultBody(res)
		body.Token = req.Token
		rspan.End()
		body.Trace = shipHome()
		chunks, err := sendResult(w.cfg.Transport, m.From, m.Round, body, res.FinalParams)
		if err != nil {
			// The run finished but its result cannot be built or sent (a
			// NaN in the summary or curve defeats JSON, or the body
			// outgrew the stream cap). Falling silent would leave the
			// dispatcher waiting out the job timeout on a healthy,
			// heartbeating worker — report the failure as the terminal
			// error frame instead (tiny, always encodable).
			w.reg.Inc("worker_result_send_errors_total")
			log.Error("dispatched result undeliverable", "err", err)
			reject(errorBody{
				Token:   req.Token,
				Message: fmt.Sprintf("dispatch: result undeliverable: %v", err),
			})
			return
		}
		if chunks > 0 {
			w.reg.Inc("worker_chunked_results_total")
		}
	}()
}
