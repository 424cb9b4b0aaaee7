package dispatch

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"hadfl"
	"hadfl/internal/metrics"
	"hadfl/internal/p2p"
	"hadfl/internal/trace"
)

// Config assembles a Dispatcher.
type Config struct {
	// Transport is the dispatcher's endpoint on the dispatch network.
	Transport p2p.Transport
	// Workers lists the worker node ids reachable over the transport.
	Workers []int
	// ReplyAddr, when non-empty, is this dispatcher's dial-back address,
	// advertised to workers in hello frames (TCP transports); id-routed
	// transports leave it empty.
	ReplyAddr string
	// Local executes runs when no live worker can (the fallback path).
	// Default: hadfl.RunContext in-process, so a dispatcher with no
	// reachable workers behaves exactly like the plain local pool.
	Local Runner
	// HeartbeatEvery is the liveness probe period. Default 500ms.
	HeartbeatEvery time.Duration
	// LivenessGrace is how long a worker may stay silent before it is
	// marked down (in-flight runs on it are retried elsewhere).
	// Default 4×HeartbeatEvery.
	LivenessGrace time.Duration
	// CancelGrace is how long, after sending a cancel frame, the
	// dispatcher waits for the worker's cooperative abort before
	// returning ctx.Err() without it. Default 2s.
	CancelGrace time.Duration
	// RecvTimeout is the receive loop's poll granularity. Default 100ms.
	RecvTimeout time.Duration
	// BreakerThreshold is how many consecutive transient failures open a
	// worker's circuit breaker (claimWorker then skips it until a
	// half-open probe succeeds). 0 = default (5); negative disables the
	// breaker entirely.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker stays open before a
	// liveness-proving frame (heartbeat ack, hello) half-opens it and
	// one trial job is admitted. Default 5s.
	BreakerCooldown time.Duration
	// RetryBackoff is the base delay between retry attempts of one job
	// after a transient worker fault; each retry doubles the ceiling and
	// the actual delay is full-jitter uniform in [0, ceiling). Busy
	// rejections skip the backoff (the worker answered promptly).
	// 0 = default (50ms); negative disables backoff.
	RetryBackoff time.Duration
	// RetryBackoffMax caps the exponential backoff ceiling. Default 2s.
	RetryBackoffMax time.Duration
	// HedgeAfter, when positive, arms hedged dispatch: an attempt still
	// running after this delay launches the same fingerprinted run on a
	// second live worker and the first terminal result wins (runs are
	// byte-deterministic, so the duplicate is free correctness-wise).
	// Once dispatch_rtt_seconds has enough observations the delay
	// tracks that histogram's HedgeQuantile instead. 0 disables hedging.
	HedgeAfter time.Duration
	// HedgeQuantile is the dispatch_rtt_seconds quantile that seeds the
	// hedge delay once the histogram is warm. Default 0.95.
	HedgeQuantile float64
	// Metrics receives dispatch telemetry (dispatch_* series). Pass the
	// serve registry to surface them on /stats. Default: private.
	Metrics *metrics.Registry
	// Tracer receives dispatch spans — including the worker-side spans
	// that terminal frames ship home. Pass the serve tracer so a
	// dispatched job's remote spans appear on GET /debug/traces under the
	// job's own trace. Default: none.
	Tracer *trace.Tracer
	// Logger receives worker liveness and retry events. Default: discard.
	Logger *slog.Logger
}

// workerState is the dispatcher's view of one worker.
type workerState struct {
	id       int
	alive    bool
	seen     time.Time // last frame proving a compatible worker
	capacity int       // from its hello ack; 0 = unknown (treated as 1)
	inflight int
	probing  bool // a heartbeat/hello send is in flight to it

	// Circuit-breaker state (see resilience.go): consecutive transient
	// faults open the breaker, the cooldown plus a liveness-proving
	// frame half-opens it, and one trial job decides reclosure.
	breaker  breakerState
	failures int       // consecutive transient faults while closed
	openedAt time.Time // when the breaker last opened
	trial    bool      // a half-open trial job is in flight
}

// outcome is a terminal frame routed to a waiting call. corrupt marks
// a frame that failed to decode: it proves nothing about the run, so
// the attempt is retried like a lost worker rather than failing the
// job. paramData is the split body's still-encoded raw64 section; the
// waiting call decodes it in finish() so a multi-megabyte decode never
// stalls recvLoop's frame routing.
type outcome struct {
	res       *resultBody
	errb      *errorBody
	corrupt   bool
	paramData []byte
}

// call is one in-flight remote run awaiting frames.
type call struct {
	worker   int
	rounds   chan roundBody // telemetry; drop-on-full, never blocks routing
	done     chan outcome   // exactly one terminal delivery
	down     chan struct{}  // closed when the worker is marked down
	downOnce sync.Once
}

// Dispatcher load-balances serve jobs across remote workers: it
// registers and heartbeats them, ships requests, streams round
// telemetry to the job's callback, propagates cancellation, retries
// transient failures on another worker (safe — runs are deterministic)
// and falls back to local execution when no worker is live. Its Run
// method matches the serve pool's Runner seam.
type Dispatcher struct {
	cfg    Config
	reg    *metrics.Registry
	tracer *trace.Tracer
	log    *slog.Logger
	local  Runner
	// token is this instance's random identity, stamped on every
	// request and cancel so workers can tell apart dispatchers whose
	// node ids and sequence numbers coincide (every hadfl-serve
	// restarts at id 0, seq 1).
	token string

	// Injected clock and waiters (see resilience.go): production wires
	// the wall clock; tests substitute deterministic versions so
	// breaker, backoff and hedge schedules run without sleeping. The
	// walltime lint analyzer enforces that this package never calls
	// time.Now / time.Sleep directly.
	now    func() time.Time
	sleep  func(ctx context.Context, d time.Duration) bool
	jitter func(max time.Duration) time.Duration

	mu      sync.Mutex
	workers map[int]*workerState
	pending map[int]*call
	nextSeq int

	// chunks holds partially reassembled terminal-body streams, keyed by
	// sender and sequence. Only recvLoop touches the map, so it needs no
	// lock (addChunk takes d.mu just to consult pending); entries retire
	// with their terminal frame, and addChunk sweeps any left behind by
	// calls that were retried away mid-stream.
	chunks map[chunkKey]*p2p.ChunkStream

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New starts a dispatcher over cfg.Transport: hellos go out to every
// configured worker immediately, heartbeats keep their liveness fresh,
// and Run can be called as soon as it returns (runs beat workers'
// registration to the local fallback; WaitReady avoids that on boot).
func New(cfg Config) (*Dispatcher, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("dispatch: dispatcher needs a transport")
	}
	if cfg.Local == nil {
		cfg.Local = localRunner
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 500 * time.Millisecond
	}
	if cfg.LivenessGrace <= 0 {
		cfg.LivenessGrace = 4 * cfg.HeartbeatEvery
	}
	if cfg.CancelGrace <= 0 {
		cfg.CancelGrace = 2 * time.Second
	}
	if cfg.RecvTimeout <= 0 {
		cfg.RecvTimeout = 100 * time.Millisecond
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Logger == nil {
		cfg.Logger = trace.NopLogger()
	}
	// Resilience knobs: zero means default, negative means disabled
	// (normalized to 0 here so the rest of the code tests > 0).
	switch {
	case cfg.BreakerThreshold == 0:
		cfg.BreakerThreshold = defaultBreakerThreshold
	case cfg.BreakerThreshold < 0:
		cfg.BreakerThreshold = 0
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = defaultBreakerCooldown
	}
	switch {
	case cfg.RetryBackoff == 0:
		cfg.RetryBackoff = defaultRetryBackoff
	case cfg.RetryBackoff < 0:
		cfg.RetryBackoff = 0
	}
	if cfg.RetryBackoffMax <= 0 {
		cfg.RetryBackoffMax = defaultRetryBackoffMax
	}
	if cfg.HedgeQuantile <= 0 || cfg.HedgeQuantile >= 1 {
		cfg.HedgeQuantile = defaultHedgeQuantile
	}
	// 16 random bytes: the first 8 are the instance token, the last 8
	// seed the jitter PRNG.
	var tok [16]byte
	if _, err := rand.Read(tok[:]); err != nil {
		return nil, fmt.Errorf("dispatch: instance token: %w", err)
	}
	d := &Dispatcher{
		cfg:     cfg,
		reg:     cfg.Metrics,
		tracer:  cfg.Tracer,
		log:     cfg.Logger,
		local:   cfg.Local,
		token:   hex.EncodeToString(tok[:8]),
		now:     time.Now,
		jitter:  newJitter(int64(binary.LittleEndian.Uint64(tok[8:]))),
		workers: make(map[int]*workerState, len(cfg.Workers)),
		pending: make(map[int]*call),
		chunks:  make(map[chunkKey]*p2p.ChunkStream),
		closed:  make(chan struct{}),
	}
	d.sleep = d.waitSleep
	for _, id := range cfg.Workers {
		d.workers[id] = &workerState{id: id}
	}
	d.reg.SetGauge("dispatch_workers_configured", float64(len(d.workers)))
	d.reg.SetGauge("dispatch_workers_live", 0)
	d.reg.SetGauge("dispatch_breaker_open_workers", 0)
	d.wg.Add(2)
	go d.recvLoop()
	go d.heartbeatLoop()
	return d, nil
}

// Close stops the loops, waits them out and closes the transport. Call
// it only after the serve pool has drained: a Run still in flight when
// Close lands returns a dispatcher-closed error.
func (d *Dispatcher) Close() error {
	d.closeOnce.Do(func() { close(d.closed) })
	d.wg.Wait()
	return d.cfg.Transport.Close()
}

// LiveWorkers reports how many workers are currently considered alive.
func (d *Dispatcher) LiveWorkers() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, ws := range d.workers {
		if ws.alive {
			n++
		}
	}
	return n
}

// WaitReady blocks until at least n workers are live or ctx expires —
// the boot-time barrier that keeps the first submissions from falling
// back to local execution while workers are still registering.
func (d *Dispatcher) WaitReady(ctx context.Context, n int) error {
	for {
		if d.LiveWorkers() >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("dispatch: %d of %d workers live: %w", d.LiveWorkers(), n, ctx.Err())
		case <-d.closed:
			return fmt.Errorf("dispatch: dispatcher closed while waiting for workers")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// recvLoop routes every inbound frame. Liveness refreshes only on
// frames that prove a protocol-compatible worker — heartbeat acks,
// hello acks whose version matches, and frames for a pending call —
// so a version-skewed worker rejecting our hellos is never marked
// live (its jobs would all fail non-transiently; leaving it down
// routes them to healthy workers or the local fallback instead).
// Bodies are JSON-decoded before taking d.mu: a multi-megabyte result
// must not stall claimWorker or the liveness probe. Stale frames — a
// late result from a worker the run was already retried away from —
// find no pending entry and are dropped.
func (d *Dispatcher) recvLoop() {
	defer d.wg.Done()
	for {
		select {
		case <-d.closed:
			return
		default:
		}
		m, ok := d.cfg.Transport.Recv(d.cfg.RecvTimeout)
		if !ok {
			continue
		}
		switch m.Kind {
		case p2p.KindAck:
			d.mu.Lock()
			d.refreshLocked(m.From)
			d.mu.Unlock()
		case p2p.KindDispatchHello:
			var h helloBody
			if err := decodeBody(m, &h); err != nil || h.Proto != proto {
				d.reg.Inc("dispatch_bad_hellos_total")
				continue
			}
			d.mu.Lock()
			d.refreshLocked(m.From)
			if ws := d.workers[m.From]; ws != nil && h.Capacity > 0 {
				ws.capacity = h.Capacity
			}
			d.mu.Unlock()
		case p2p.KindDispatchRound:
			var r roundBody
			if err := decodeBody(m, &r); err != nil || r.Token != d.token {
				// Not ours: a predecessor instance's orphaned run can
				// share our (worker, sequence) pair, but never our token.
				continue
			}
			d.mu.Lock()
			c := d.pending[m.Round]
			if c != nil && c.worker == m.From {
				d.refreshLocked(m.From)
			} else {
				c = nil
			}
			d.mu.Unlock()
			if c != nil {
				select {
				case c.rounds <- r:
				default: // slow consumer: telemetry drops, routing never blocks
				}
			}
		case p2p.KindDispatchChunk:
			d.addChunk(m)
		case p2p.KindDispatchResult, p2p.KindDispatchError:
			var o outcome
			body, err := d.terminalBody(m)
			if err == nil {
				if m.Kind == p2p.KindDispatchResult {
					// The body's full size on the wire — reassembled when
					// it arrived as a chunk stream.
					d.reg.ObserveBytes("dispatch_result_frame_bytes", float64(len(body)))
					var jsonData []byte
					if jsonData, o.paramData, err = decodeSplitBody(body); err == nil {
						o.res = &resultBody{}
						err = json.Unmarshal(jsonData, o.res)
					}
				} else {
					o.errb = &errorBody{}
					err = json.Unmarshal(body, o.errb)
				}
			}
			if err != nil {
				o = outcome{errb: &errorBody{Message: err.Error()}, corrupt: true}
			}
			// Token gate: a result must carry our instance token, or it
			// belongs to another dispatcher's run that shares our
			// (worker, sequence) pair — adopting it would cache a wrong
			// job's model. Error frames get one concession: an empty
			// token means the worker could not even decode the request
			// (token unknowable), which for a pending sequence is a
			// corrupt-exchange signal, safe to treat as transient.
			switch {
			case o.res != nil && o.res.Token != d.token:
				d.reg.Inc("dispatch_stray_results_total")
				continue
			case o.errb != nil && o.errb.Token != d.token:
				if o.errb.Token != "" {
					d.reg.Inc("dispatch_stray_errors_total")
					continue
				}
				o.corrupt = true
			}
			d.mu.Lock()
			c := d.pending[m.Round]
			if c != nil && c.worker == m.From {
				d.refreshLocked(m.From)
				delete(d.pending, m.Round)
			} else {
				// Retired sequence, or a frame that never had a call
				// (e.g. a request rejection from before registration):
				// drop it, but make rejections visible on /stats.
				if o.errb != nil {
					d.reg.Inc("dispatch_stray_errors_total")
				}
				c = nil
			}
			d.mu.Unlock()
			if c != nil {
				c.done <- o // buffered 1; at most one terminal per sequence
			}
		}
	}
}

// chunkKey identifies one sequence's chunk stream.
type chunkKey struct {
	from int
	seq  int
}

// addChunk buffers one chunk frame into its sequence's reassembly
// stream. Chunks are accepted only for a pending call on the sending
// worker — anything else (a retired sequence, a foreign instance's
// stream) is dropped along with any partial stream, and a sweep retires
// streams whose calls have moved on, so abandoned buffers cannot pile
// up. A chunk that fails stream validation poisons the entry; the
// terminal frame then fails its count/checksum check and the attempt
// retries as transient.
func (d *Dispatcher) addChunk(m p2p.Message) {
	key := chunkKey{m.From, m.Round}
	var stale []chunkKey
	d.mu.Lock()
	c := d.pending[m.Round]
	ours := c != nil && c.worker == m.From
	if ours {
		d.refreshLocked(m.From)
	}
	for k := range d.chunks {
		if pc := d.pending[k.seq]; pc == nil || pc.worker != k.from {
			stale = append(stale, k)
		}
	}
	d.mu.Unlock()
	for _, k := range stale {
		delete(d.chunks, k)
	}
	if !ours {
		return
	}
	s := d.chunks[key]
	if s == nil {
		s = &p2p.ChunkStream{}
		d.chunks[key] = s
	}
	if err := s.Add(m); err != nil {
		delete(d.chunks, key)
		return
	}
	d.reg.Inc("dispatch_wire_chunks_total")
}

// terminalBody yields a terminal frame's complete body: the frame's
// own body in the single-frame form (Chunk=0), otherwise the
// reassembled stream the frame's trailer closes and checksums. Either
// way the sequence's stream entry is retired.
func (d *Dispatcher) terminalBody(m p2p.Message) ([]byte, error) {
	key := chunkKey{m.From, m.Round}
	s := d.chunks[key]
	delete(d.chunks, key)
	if m.Chunk == 0 {
		return p2p.DispatchBody(m)
	}
	d.reg.Inc("dispatch_wire_chunked_results_total")
	if s == nil {
		s = &p2p.ChunkStream{} // no chunks arrived; Finish reports the mismatch
	}
	return s.Finish(m)
}

// refreshLocked marks a configured worker as seen (and alive), and —
// because a fresh frame proves the worker is responsive — gives an
// open breaker past its cooldown the half-open nudge. Callers hold
// d.mu and must only call it for frames that prove a compatible,
// responsive worker.
func (d *Dispatcher) refreshLocked(id int) {
	ws := d.workers[id]
	if ws == nil {
		return
	}
	ws.seen = d.now()
	if !ws.alive {
		ws.alive = true
		d.updateLiveGaugeLocked()
		d.log.Info("dispatch worker live", "worker", id)
	}
	d.maybeHalfOpenLocked(ws)
}

// heartbeatLoop probes workers every HeartbeatEvery: live workers get
// heartbeats, silent ones past LivenessGrace are marked down (waking
// any calls parked on them), and down workers get fresh hellos so a
// restarted or healed worker re-registers on its own.
func (d *Dispatcher) heartbeatLoop() {
	defer d.wg.Done()
	d.probe() // immediate hello burst at boot
	t := time.NewTicker(d.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-d.closed:
			return
		case <-t.C:
			d.probe()
		}
	}
}

func (d *Dispatcher) probe() {
	now := d.now()
	var beat, hello []int
	d.mu.Lock()
	for id, ws := range d.workers {
		if ws.alive && now.Sub(ws.seen) > d.cfg.LivenessGrace {
			ws.alive = false
			d.updateLiveGaugeLocked()
			d.reg.Inc("dispatch_workers_lost_total")
			d.log.Warn("dispatch worker lost", "worker", id, "silentSec", now.Sub(ws.seen).Seconds())
			for _, c := range d.pending {
				if c.worker == id {
					c.downOnce.Do(func() { close(c.down) })
				}
			}
		}
		if ws.probing {
			continue // previous probe still blocked on this peer; skip
		}
		ws.probing = true
		if ws.alive {
			beat = append(beat, id)
		} else {
			hello = append(hello, id)
		}
	}
	d.mu.Unlock()
	// Sends go out on one goroutine per worker: a TCP transport can
	// block for seconds dialing (or writing to) a blackholed peer, and
	// probing serially would delay heartbeats to healthy workers past
	// LivenessGrace and flap them down. The probing flag caps it at one
	// outstanding send per worker, so a wedged peer costs one parked
	// goroutine, not a pile-up.
	send := func(id int, f func()) {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			f()
			d.mu.Lock()
			if ws := d.workers[id]; ws != nil {
				ws.probing = false
			}
			d.mu.Unlock()
		}()
	}
	for _, id := range beat {
		id := id
		send(id, func() {
			_ = d.cfg.Transport.Send(p2p.Message{Kind: p2p.KindHeartbeat, To: id})
		})
	}
	for _, id := range hello {
		id := id
		send(id, func() {
			_ = sendFrame(d.cfg.Transport, p2p.KindDispatchHello, id, 0, helloBody{
				Proto: proto, ReplyAddr: d.cfg.ReplyAddr,
			})
		})
	}
}

func (d *Dispatcher) updateLiveGaugeLocked() {
	n := 0
	for _, ws := range d.workers {
		if ws.alive {
			n++
		}
	}
	d.reg.SetGauge("dispatch_workers_live", float64(n))
}

// Run executes one run remotely if it can: pick the least-loaded live
// worker, ship the request, stream rounds to onRound, and return the
// rebuilt result. Transient failures (send error, busy rejection,
// worker lost or shut down mid-run, torn parameter exchange) move the
// run to the next live worker after a jittered exponential backoff;
// workers whose circuit breaker is open are skipped; a slow attempt
// may be hedged on a second worker (see attempt); and when no worker
// remains — after one reconsideration pass re-admitting tried workers
// that recovered — the run executes locally. Failures come back as a
// *DispatchError carrying the whole journey. It matches the serve
// pool's Runner seam.
func (d *Dispatcher) Run(ctx context.Context, scheme string, opts hadfl.Options, onRound func(hadfl.RoundUpdate)) (res *hadfl.Result, err error) {
	fp, err := hadfl.Fingerprint(scheme, opts)
	if err != nil {
		return nil, err
	}
	// Child of the pool's serve.job span when the pool threaded one
	// through ctx; otherwise the root of a fresh trace.
	ctx, span := trace.Start(ctx, d.tracer, "dispatch.run")
	defer func() {
		span.SetError(err)
		span.End()
	}()
	span.SetAttr("jobID", fp)
	span.SetAttr("scheme", scheme)
	gate := newRoundGate(onRound)
	jr := &journey{dispatcher: d.token, jobID: fp, scheme: scheme}
	defer func() { span.SetAttr("attempts", fmt.Sprint(len(jr.attempts))) }()
	tried := make(map[int]bool)
	reconsidered := false
	retries := 0
	for {
		if cerr := ctx.Err(); cerr != nil {
			return nil, jr.wrap(cerr, gate.lastRound(), false)
		}
		ws := d.claimWorker(tried)
		if ws == nil {
			// Before giving up on the fleet: one pass re-admitting tried
			// workers that recovered (re-registered, breaker no longer
			// open) while later attempts were failing.
			if !reconsidered && len(tried) > 0 {
				reconsidered = true
				if back := d.reconsiderTried(tried); len(back) > 0 {
					d.reg.Inc("dispatch_reconsider_total")
					d.log.Info("dispatch reconsidering recovered workers", "jobID", fp, "workers", back)
					continue
				}
			}
			break
		}
		res, aerr, transient := d.attempt(ctx, ws, fp, scheme, opts, gate, tried, jr)
		if !transient {
			if aerr != nil {
				return nil, jr.wrap(aerr, gate.lastRound(), false)
			}
			return res, nil
		}
		d.reg.Inc("dispatch_retries_total")
		d.log.Warn("dispatch retry", "jobID", fp, "worker", ws.id, "err", aerr)
		// Busy rejections skip the backoff: the worker answered promptly
		// and another may have a free slot right now. Everything else —
		// lost workers, corrupt frames, torn parameter exchanges — waits
		// out a full-jitter exponential delay so a sick-but-alive fleet
		// is not hammered at full rate.
		if d.cfg.RetryBackoff > 0 && !errors.Is(aerr, errWorkerBusy) {
			delay := d.jitter(backoffCeiling(d.cfg.RetryBackoff, d.cfg.RetryBackoffMax, retries))
			retries++
			d.reg.Observe("dispatch_retry_backoff_seconds", delay.Seconds())
			if !d.sleep(ctx, delay) {
				if cerr := ctx.Err(); cerr != nil {
					return nil, jr.wrap(cerr, gate.lastRound(), false)
				}
				return nil, jr.wrap(errors.New("dispatch: dispatcher closed mid-run"), gate.lastRound(), false)
			}
		}
	}
	d.reg.Inc("dispatch_local_fallback_total")
	d.log.Info("dispatch local fallback", "jobID", fp, "tried", len(tried))
	span.SetAttr("fallback", "local")
	res, lerr := d.local(ctx, scheme, opts, gate.forward)
	if lerr != nil {
		return nil, jr.wrap(lerr, gate.lastRound(), true)
	}
	return res, nil
}

// claimWorker picks the live worker with the most free capacity (ties
// to the lowest id, so placement is deterministic) and reserves a slot
// on it; nil means the local fallback is next. Workers in exclude or
// with an open breaker are skipped; a half-open worker is used only
// when no healthy worker has a free slot, and admits one trial job at
// a time.
func (d *Dispatcher) claimWorker(exclude map[int]bool) *workerState {
	d.mu.Lock()
	defer d.mu.Unlock()
	var best, trial *workerState
	bestFree := 0
	for _, ws := range d.workers {
		if !ws.alive || exclude[ws.id] || ws.breaker == breakerOpen {
			continue
		}
		cap := ws.capacity
		if cap <= 0 {
			cap = 1
		}
		free := cap - ws.inflight
		if free <= 0 {
			continue
		}
		if ws.breaker == breakerHalfOpen {
			if !ws.trial && (trial == nil || ws.id < trial.id) {
				trial = ws
			}
			continue
		}
		if best == nil || free > bestFree || (free == bestFree && ws.id < best.id) {
			best, bestFree = ws, free
		}
	}
	if best == nil && trial != nil {
		trial.trial = true
		best = trial
	}
	if best != nil {
		best.inflight++
	}
	return best
}

// runOn executes one attempt on one worker. The third return reports
// whether the failure is transient (retry on another worker) — results
// and genuine run errors are not. hedge marks a hedged leg, for the
// span only.
func (d *Dispatcher) runOn(ctx context.Context, ws *workerState, fp, scheme string, opts hadfl.Options, onRound func(hadfl.RoundUpdate), hedge bool) (_ *hadfl.Result, retErr error, transient bool) {
	ctx, span := trace.Start(ctx, d.tracer, "dispatch.request")
	defer func() {
		span.SetError(retErr)
		span.End()
	}()
	span.SetAttr("worker", fmt.Sprint(ws.id))
	if hedge {
		span.SetAttr("hedge", "true")
	}
	sent := d.now()
	d.mu.Lock()
	d.nextSeq++
	seq := d.nextSeq
	c := &call{
		worker: ws.id,
		rounds: make(chan roundBody, 64),
		done:   make(chan outcome, 1),
		down:   make(chan struct{}),
	}
	d.pending[seq] = c
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		delete(d.pending, seq)
		ws.inflight--
		// Clearing trial here (not just on the trial leg) can admit an
		// extra half-open probe when an older job finishes first — a
		// benign over-probe, never an under-probe.
		ws.trial = false
		d.mu.Unlock()
	}()

	req := requestBody{Proto: proto, Token: d.token, JobID: fp, Scheme: scheme, Options: opts}
	if sc := span.Context(); sc.Valid() {
		req.Trace = &wireTrace{TraceID: sc.TraceID, SpanID: sc.SpanID}
	}
	if dl, ok := ctx.Deadline(); ok {
		rem := dl.Sub(d.now())
		if rem <= 0 {
			// The deadline has passed but ctx's timer may not have
			// fired yet (ctx.Err() can still be nil) — report the
			// expiry explicitly so the caller never sees (nil, nil).
			return nil, context.DeadlineExceeded, false
		}
		req.DeadlineSec = rem.Seconds()
	}
	if err := sendFrame(d.cfg.Transport, p2p.KindDispatchRequest, ws.id, seq, req); err != nil {
		return nil, err, true
	}
	d.reg.Inc("dispatch_requests_total")

	ctxDone := ctx.Done()
	var cancelExpired <-chan time.Time
	canceled := false
	forward := func(r roundBody) {
		if onRound != nil && !canceled {
			u := r.RoundUpdate
			u.Scheme = scheme
			onRound(u)
		}
	}
	// drainRounds flushes telemetry still queued behind a terminal
	// frame: recvLoop delivers rounds before the outcome, but select
	// picks ready cases at random, so without the drain the run's last
	// round(s) could be dropped on the floor.
	drainRounds := func() {
		for {
			select {
			case r := <-c.rounds:
				forward(r)
			default:
				return
			}
		}
	}
	for {
		select {
		case <-ctxDone:
			// Propagate the abort and give the worker CancelGrace to
			// confirm cooperatively; disarm this case so the closed
			// channel cannot spin the loop.
			ctxDone = nil
			canceled = true
			d.reg.Inc("dispatch_cancels_total")
			_ = sendFrame(d.cfg.Transport, p2p.KindDispatchCancel, ws.id, seq, cancelBody{Token: d.token})
			t := time.NewTimer(d.cfg.CancelGrace)
			defer t.Stop()
			cancelExpired = t.C
		case <-cancelExpired:
			return nil, ctx.Err(), false
		case <-d.closed:
			return nil, errors.New("dispatch: dispatcher closed mid-run"), false
		case r := <-c.rounds:
			forward(r)
		case <-c.down:
			// Prefer a terminal frame that raced the down mark.
			select {
			case o := <-c.done:
				drainRounds()
				return d.finish(ctx, ws, o, canceled, sent)
			default:
			}
			// Best-effort cancel to the lost worker: if it was merely
			// slow (not dead) the orphaned run frees its capacity slot
			// within one device step instead of training to completion
			// and busy-bouncing jobs after the worker heals.
			_ = sendFrame(d.cfg.Transport, p2p.KindDispatchCancel, ws.id, seq, cancelBody{Token: d.token})
			if canceled {
				return nil, ctx.Err(), false
			}
			return nil, fmt.Errorf("dispatch: worker %d lost mid-run", ws.id), true
		case o := <-c.done:
			drainRounds()
			return d.finish(ctx, ws, o, canceled, sent)
		}
	}
}

// finish maps a terminal frame to the Runner contract's (result, error)
// and classifies retryability. sent anchors the attempt's round-trip
// histogram; the frame's shipped-home worker spans land in the tracer
// here, stitching the remote half of the trace into the local ring.
func (d *Dispatcher) finish(ctx context.Context, ws *workerState, o outcome, canceled bool, sent time.Time) (*hadfl.Result, error, bool) {
	d.reg.Observe("dispatch_rtt_seconds", d.now().Sub(sent).Seconds())
	d.recordRemoteSpans(o)
	if o.errb != nil {
		eb := o.errb
		switch {
		case eb.Busy:
			d.reg.Inc("dispatch_busy_rejections_total")
			return nil, fmt.Errorf("%w: worker %d: %s", errWorkerBusy, ws.id, eb.Message), true
		case o.corrupt && !canceled:
			// The frame failed, not the run: reruns are deterministic
			// and safe, so treat it like a lost worker.
			return nil, fmt.Errorf("dispatch: worker %d sent an undecodable terminal frame: %s", ws.id, eb.Message), true
		case canceled:
			// Our abort, confirmed cooperatively: surface ctx's error so
			// the pool records a clean cancel/timeout.
			return nil, ctx.Err(), false
		case eb.Canceled:
			// The worker aborted on its own (its shutdown, not our
			// cancel): the run is healthy, the worker is not — retry.
			return nil, errors.New(eb.Message), true
		case eb.Timeout:
			return nil, context.DeadlineExceeded, false
		default:
			return nil, fmt.Errorf("dispatch: worker %d: %s", ws.id, eb.Message), false
		}
	}
	params, err := p2p.DecodeRaw64(o.paramData, o.res.ParamCount)
	if err != nil {
		// The section failed, not the run: reruns are deterministic and
		// safe, so a torn parameter exchange retries like a lost worker.
		return nil, fmt.Errorf("dispatch: worker %d result params: %w", ws.id, err), true
	}
	d.reg.Add("dispatch_wire_raw_bytes_total", int64(len(o.paramData)))
	d.reg.Inc("dispatch_remote_total")
	return o.res.toResult(params), nil, false
}

// recordRemoteSpans lands the worker-side spans a terminal frame
// carried into the dispatcher's tracer ring.
func (d *Dispatcher) recordRemoteSpans(o outcome) {
	if d.tracer == nil {
		return
	}
	var wt *wireTrace
	switch {
	case o.res != nil:
		wt = o.res.Trace
	case o.errb != nil:
		wt = o.errb.Trace
	}
	if wt == nil {
		return
	}
	for _, sd := range wt.Spans {
		d.tracer.Record(sd)
	}
}
