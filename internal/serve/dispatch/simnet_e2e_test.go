package dispatch

// End-to-end suite over the in-process simulated network: a ChanHub
// connects one dispatcher node and worker nodes exactly as TCP would in
// a deployment, but with no real sockets, plus the hub's Kill switch
// for fault injection. The suite pins the subsystem's two contracts:
//
//   - determinism: a dispatched run's summary, curve and final
//     parameter vector are byte-identical to the same request run
//     locally (same fingerprint → same result, wherever it executes);
//   - failure semantics: cancel frames abort the worker's run
//     cooperatively, a worker lost mid-run retries on another and still
//     reproduces the local result, heartbeat loss marks workers down,
//     and with no live worker the dispatcher falls back to local
//     execution.

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"hadfl"
	"hadfl/internal/metrics"
	"hadfl/internal/p2p"
	"hadfl/internal/trace"
)

const (
	dispatcherID = 0
	worker1ID    = 1
	worker2ID    = 2
)

// fastOpts is a seconds-scale run: 2 devices, a short epoch budget.
func fastOpts(seed int64) hadfl.Options {
	return hadfl.Options{Powers: []float64{2, 1}, TargetEpochs: 2, Seed: seed}
}

// harness is one simnet deployment: a hub, a dispatcher, and workers
// serving on their own goroutines.
type harness struct {
	t       *testing.T
	hub     *p2p.ChanHub
	disp    *Dispatcher
	workers map[int]*Worker
	reg     *metrics.Registry
	tracer  *trace.Tracer
	stop    context.CancelFunc
	done    sync.WaitGroup
}

// startHarness boots a dispatcher plus one worker per entry of
// workerIDs (each capacity 1 unless overridden) and waits for every
// worker to register. Tracing is always on — the whole suite,
// byte-identity tests included, runs instrumented, pinning the
// passivity contract (spans never change results).
func startHarness(t *testing.T, workerIDs []int, capacity int, runner Runner) *harness {
	t.Helper()
	h := &harness{
		t:       t,
		hub:     p2p.NewChanHub(),
		workers: make(map[int]*Worker),
		reg:     metrics.NewRegistry(),
		tracer:  trace.NewTracer(0),
	}
	ctx, cancel := context.WithCancel(context.Background())
	h.stop = cancel
	for _, id := range workerIDs {
		w, err := NewWorker(WorkerConfig{
			Transport:   h.hub.Node(id),
			Capacity:    capacity,
			Runner:      runner,
			RecvTimeout: 10 * time.Millisecond,
			Metrics:     h.reg,
			Tracer:      trace.NewTracer(0), // the worker's own ring; spans also ship home
		})
		if err != nil {
			t.Fatal(err)
		}
		h.workers[id] = w
		h.done.Add(1)
		go func() {
			defer h.done.Done()
			_ = w.Serve(ctx)
		}()
	}
	d, err := New(Config{
		Transport:      h.hub.Node(dispatcherID),
		Workers:        workerIDs,
		HeartbeatEvery: 20 * time.Millisecond,
		LivenessGrace:  100 * time.Millisecond,
		RecvTimeout:    10 * time.Millisecond,
		Metrics:        h.reg,
		Tracer:         h.tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.disp = d
	if len(workerIDs) > 0 {
		readyCtx, cancelReady := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancelReady()
		if err := d.WaitReady(readyCtx, len(workerIDs)); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		h.stop()
		h.done.Wait()
		_ = h.disp.Close()
	})
	return h
}

// summaryJSON renders a result as the byte-identity oracle: the
// hadfl.Result wire form (which keeps eval telemetry, wall-clock, off
// the wire) plus the named curve and the final parameter vector, so a
// newly keyed Result field joins the dispatched == local check on its
// own.
func summaryJSON(t *testing.T, res *hadfl.Result) []byte {
	t.Helper()
	wire, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]json.RawMessage{}
	if err := json.Unmarshal(wire, &fields); err != nil {
		t.Fatal(err)
	}
	for key, v := range map[string]any{
		"curveName":   res.Series.Name,
		"curve":       res.Series.Points,
		"finalParams": res.FinalParams,
	} {
		if fields[key], err = json.Marshal(v); err != nil {
			t.Fatal(err)
		}
	}
	data, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSimnetDispatchByteIdentical is the subsystem's core contract: a
// run dispatched over the simnet returns a summary byte-identical to
// the same request run locally — same fingerprint, same accuracy
// curve, same final parameter vector, bit for bit — and streams the
// same number of round updates the local run reported.
func TestSimnetDispatchByteIdentical(t *testing.T) {
	opts := fastOpts(1)
	scheme := hadfl.SchemeHADFL

	var localRounds []hadfl.RoundUpdate
	localOpts := opts
	localOpts.OnRound = func(u hadfl.RoundUpdate) { localRounds = append(localRounds, u) }
	local, err := hadfl.RunContext(context.Background(), scheme, localOpts)
	if err != nil {
		t.Fatal(err)
	}

	h := startHarness(t, []int{worker1ID}, 1, nil)
	var remoteRounds []hadfl.RoundUpdate
	var mu sync.Mutex
	remote, err := h.disp.Run(context.Background(), scheme, opts, func(u hadfl.RoundUpdate) {
		mu.Lock()
		remoteRounds = append(remoteRounds, u)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}

	if got, want := summaryJSON(t, remote), summaryJSON(t, local); string(got) != string(want) {
		t.Fatalf("dispatched summary differs from local:\nremote %s\nlocal  %s", got, want)
	}
	for i, p := range local.FinalParams {
		if remote.FinalParams[i] != p {
			t.Fatalf("FinalParams[%d]: remote %v != local %v", i, remote.FinalParams[i], p)
		}
	}
	fpLocal, err := hadfl.Fingerprint(scheme, opts)
	if err != nil {
		t.Fatal(err)
	}
	fpRemote, err := hadfl.Fingerprint(remote.Scheme, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fpRemote != fpLocal {
		t.Fatalf("fingerprint drift: remote %s local %s", fpRemote, fpLocal)
	}
	mu.Lock()
	nRemote := len(remoteRounds)
	mu.Unlock()
	if nRemote != len(localRounds) {
		t.Fatalf("round telemetry: remote streamed %d updates, local %d", nRemote, len(localRounds))
	}
	if h.reg.Counter("dispatch_remote_total") != 1 {
		t.Fatalf("dispatch_remote_total = %d, want 1", h.reg.Counter("dispatch_remote_total"))
	}
	if h.reg.Counter("dispatch_local_fallback_total") != 0 {
		t.Fatal("local fallback used despite a live worker")
	}
}

// TestSimnetDispatchChunkedLargeResult is the chunk streamer's
// acceptance test: a result whose raw body exceeds the 16 MiB frame cap
// completes, bit for bit. The stub runner returns a ~17.6 MB parameter
// vector (2.2M float64s), so the split body must travel as multiple
// chunk frames. Two more jobs return a nil and an empty vector: both
// ship as a zero-count raw64 section and must arrive as nil, so the
// summary keeps rendering "finalParams":null. The liveness grace is
// generous — a tight one on a loaded 1-core CI host can mark the worker
// down mid-encode and silently fall back to local execution, voiding
// what the assertions think they proved.
func TestSimnetDispatchChunkedLargeResult(t *testing.T) {
	const n = 2_200_000 // 8n = 17.6 MB raw64 > p2p.MaxDispatchBody
	if 8*n <= p2p.MaxDispatchBody {
		t.Fatalf("test vector no longer exceeds the frame cap (%d <= %d)", 8*n, p2p.MaxDispatchBody)
	}
	big := make([]float64, n)
	rng := rand.New(rand.NewSource(99))
	for i := range big {
		big[i] = rng.NormFloat64()
	}
	stub := func(ctx context.Context, scheme string, opts hadfl.Options, onRound func(hadfl.RoundUpdate)) (*hadfl.Result, error) {
		res := &hadfl.Result{Scheme: scheme, Accuracy: 0.9, Rounds: 1}
		switch opts.Seed {
		case 1:
			res.FinalParams = big
		case 3:
			res.FinalParams = []float64{}
		}
		return res, nil
	}
	h := startResilientHarness(t, map[int]Runner{worker1ID: stub}, 1, func(cfg *Config) {
		cfg.HeartbeatEvery = 50 * time.Millisecond
		cfg.LivenessGrace = 5 * time.Second
	})
	res, err := h.disp.Run(context.Background(), hadfl.SchemeHADFL, fastOpts(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FinalParams) != n {
		t.Fatalf("%d params survived, want %d", len(res.FinalParams), n)
	}
	for i := range big {
		if math.Float64bits(res.FinalParams[i]) != math.Float64bits(big[i]) {
			t.Fatalf("FinalParams[%d] drifted across the chunk stream", i)
		}
	}
	if n := h.reg.Counter("dispatch_wire_chunked_results_total"); n != 1 {
		t.Fatalf("dispatch_wire_chunked_results_total = %d, want 1", n)
	}
	// ≥ ceil(17.6MB / 4MiB) = 5 chunk frames.
	if n := h.reg.Counter("dispatch_wire_chunks_total"); n < 5 {
		t.Fatalf("dispatch_wire_chunks_total = %d, want >= 5", n)
	}
	if n := h.reg.Counter("worker_chunked_results_total"); n != 1 {
		t.Fatalf("worker_chunked_results_total = %d, want 1", n)
	}
	if n := h.reg.Counter("dispatch_wire_raw_bytes_total"); n != 8*int64(len(big)) {
		t.Fatalf("dispatch_wire_raw_bytes_total = %d, want %d", n, 8*len(big))
	}
	for _, seed := range []int64{2, 3} {
		res, err := h.disp.Run(context.Background(), hadfl.SchemeHADFL, fastOpts(seed), nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalParams != nil {
			t.Fatalf("seed %d: empty vector arrived as %#v, want nil", seed, res.FinalParams)
		}
		if got := summaryJSON(t, res); !strings.Contains(string(got), `"finalParams":null`) {
			t.Fatalf("seed %d: summary %s, want \"finalParams\":null", seed, got)
		}
	}
	if n := h.reg.Counter("dispatch_remote_total"); n != 3 {
		t.Fatalf("dispatch_remote_total = %d, want 3", n)
	}
}

// TestSimnetDispatchEverySchemeByteIdentical sweeps the whole registry
// through the wire once (guarded by -short): any scheme whose result
// does not survive the round trip exactly is a protocol bug.
func TestSimnetDispatchEverySchemeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full-registry dispatch sweep in -short mode")
	}
	h := startHarness(t, []int{worker1ID}, 1, nil)
	opts := fastOpts(3)
	for _, scheme := range hadfl.Schemes() {
		local, err := hadfl.RunContext(context.Background(), scheme, opts)
		if err != nil {
			t.Fatalf("%s local: %v", scheme, err)
		}
		remote, err := h.disp.Run(context.Background(), scheme, opts, nil)
		if err != nil {
			t.Fatalf("%s dispatched: %v", scheme, err)
		}
		if got, want := summaryJSON(t, remote), summaryJSON(t, local); string(got) != string(want) {
			t.Errorf("%s: dispatched summary differs from local", scheme)
		}
	}
}

// TestSimnetDispatchCancelMidRound cancels the caller's context after
// the first round frame arrives: the cancel frame must reach the
// worker, whose RunContext aborts cooperatively, and the dispatcher
// must surface context.Canceled — not a made-up error — while the
// worker drains to zero active runs.
func TestSimnetDispatchCancelMidRound(t *testing.T) {
	h := startHarness(t, []int{worker1ID}, 1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// A run long enough to always be mid-flight when the cancel lands.
	opts := hadfl.Options{Powers: []float64{2, 1}, TargetEpochs: 5000, Seed: 1}
	var once sync.Once
	res, err := h.disp.Run(ctx, hadfl.SchemeHADFL, opts, func(hadfl.RoundUpdate) {
		once.Do(cancel)
	})
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled dispatch returned (%v, %v), want (nil, context.Canceled)", res, err)
	}
	// The worker's run must wind down cooperatively (within about one
	// device step), not linger as an orphan.
	deadline := time.Now().Add(5 * time.Second)
	for h.workers[worker1ID].ActiveRuns() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker still has active runs after cancel")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if h.reg.Counter("dispatch_cancels_total") != 1 {
		t.Fatalf("dispatch_cancels_total = %d, want 1", h.reg.Counter("dispatch_cancels_total"))
	}
}

// TestSimnetDispatchDeadlinePropagation ships the remaining deadline
// with the request: the run aborts with DeadlineExceeded.
func TestSimnetDispatchDeadlinePropagation(t *testing.T) {
	h := startHarness(t, []int{worker1ID}, 1, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	opts := hadfl.Options{Powers: []float64{2, 1}, TargetEpochs: 5000, Seed: 1}
	res, err := h.disp.Run(ctx, hadfl.SchemeHADFL, opts, nil)
	if res != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline dispatch returned (%v, %v), want (nil, DeadlineExceeded)", res, err)
	}
}

// TestSimnetDispatchWorkerCrashMidRound kills the executing worker
// after its first round frame. The dispatcher must notice via
// heartbeat loss, retry the run on the surviving worker, and the
// result must still match the local run byte for byte — the retry is
// a full deterministic rerun, not a resume.
func TestSimnetDispatchWorkerCrashMidRound(t *testing.T) {
	// Enough rounds that the kill always lands while the run is still
	// in flight (a run that finishes before the liveness grace expires
	// would complete without ever needing the retry).
	opts := fastOpts(5)
	opts.TargetEpochs = 6
	local, err := hadfl.RunContext(context.Background(), hadfl.SchemeHADFL, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := startHarness(t, []int{worker1ID, worker2ID}, 1, nil)
	// Kill whichever worker sends the first round frame. Round frames
	// carry From, but the dispatcher's onRound does not expose it, so
	// watch both workers' activity instead.
	var killOnce sync.Once
	res, err := h.disp.Run(context.Background(), hadfl.SchemeHADFL, opts, func(hadfl.RoundUpdate) {
		killOnce.Do(func() {
			for id, w := range h.workers {
				if w.ActiveRuns() > 0 {
					h.hub.Kill(id)
				}
			}
		})
	})
	if err != nil {
		t.Fatalf("dispatch with mid-run crash: %v", err)
	}
	if got, want := summaryJSON(t, res), summaryJSON(t, local); string(got) != string(want) {
		t.Fatalf("post-crash retry summary differs from local:\nremote %s\nlocal  %s", got, want)
	}
	if h.reg.Counter("dispatch_retries_total") == 0 {
		t.Fatal("crash produced no retry")
	}
	if h.reg.Counter("dispatch_local_fallback_total") != 0 {
		t.Fatal("fell back to local despite a surviving worker")
	}
}

// TestSimnetDispatchHeartbeatLoss kills an idle worker's link: the
// dispatcher must mark it down after the liveness grace and route the
// next run to local fallback (it is the only worker), then re-register
// it on its own once the link heals.
func TestSimnetDispatchHeartbeatLoss(t *testing.T) {
	h := startHarness(t, []int{worker1ID}, 1, nil)
	h.hub.Kill(worker1ID)
	deadline := time.Now().Add(5 * time.Second)
	for h.disp.LiveWorkers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("silent worker never marked down")
		}
		time.Sleep(10 * time.Millisecond)
	}
	res, err := h.disp.Run(context.Background(), hadfl.SchemeHADFL, fastOpts(7), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Scheme != hadfl.SchemeHADFL {
		t.Fatalf("fallback result %+v", res)
	}
	if h.reg.Counter("dispatch_local_fallback_total") != 1 {
		t.Fatalf("dispatch_local_fallback_total = %d, want 1", h.reg.Counter("dispatch_local_fallback_total"))
	}
	// Heal the link: the dispatcher's hello retries must re-register
	// the worker with no outside help.
	h.hub.Revive(worker1ID)
	readyCtx, cancelReady := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelReady()
	if err := h.disp.WaitReady(readyCtx, 1); err != nil {
		t.Fatalf("worker never re-registered after heal: %v", err)
	}
}

// TestSimnetDispatchNoWorkersConfigured: a dispatcher with an empty
// worker list is exactly the local pool.
func TestSimnetDispatchNoWorkersConfigured(t *testing.T) {
	h := startHarness(t, nil, 1, nil)
	res, err := h.disp.Run(context.Background(), hadfl.SchemeHADFL, fastOpts(9), nil)
	if err != nil {
		t.Fatal(err)
	}
	local, err := hadfl.RunContext(context.Background(), hadfl.SchemeHADFL, fastOpts(9))
	if err != nil {
		t.Fatal(err)
	}
	if string(summaryJSON(t, res)) != string(summaryJSON(t, local)) {
		t.Fatal("fallback result differs from a plain local run")
	}
}

// TestSimnetDispatchBusyOverflow saturates a capacity-1 worker with
// two concurrent runs: one executes remotely, the overflow lands on
// the local fallback, and both reproduce the local results.
func TestSimnetDispatchBusyOverflow(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping 4-run saturation test in -short mode")
	}
	h := startHarness(t, []int{worker1ID}, 1, nil)
	var wg sync.WaitGroup
	results := make([]*hadfl.Result, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = h.disp.Run(context.Background(), hadfl.SchemeHADFL, fastOpts(int64(11+i)), nil)
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		local, err := hadfl.RunContext(context.Background(), hadfl.SchemeHADFL, fastOpts(int64(11+i)))
		if err != nil {
			t.Fatal(err)
		}
		if string(summaryJSON(t, results[i])) != string(summaryJSON(t, local)) {
			t.Errorf("run %d differs from its local twin", i)
		}
	}
}

// TestWorkerDisambiguatesDispatcherInstances pins the instance-token
// contract: two dispatchers that share a transport id and sequence
// number (a restarted hadfl-serve reuses id 0 and restarts sequences
// at 1) must not collide — both runs execute, and a cancel only
// aborts the run whose token it carries.
func TestWorkerDisambiguatesDispatcherInstances(t *testing.T) {
	hub := p2p.NewChanHub()
	blocker := func(ctx context.Context, _ string, _ hadfl.Options, _ func(hadfl.RoundUpdate)) (*hadfl.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	w, err := NewWorker(WorkerConfig{
		Transport:   hub.Node(worker1ID),
		Capacity:    2,
		Runner:      blocker,
		RecvTimeout: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = w.Serve(ctx) }()
	probe := hub.Node(dispatcherID)

	fp, err := hadfl.Fingerprint(hadfl.SchemeHADFL, fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	const seq = 1
	for _, token := range []string{"instance-a", "instance-b"} {
		req := requestBody{Proto: proto, Token: token, JobID: fp, Scheme: hadfl.SchemeHADFL, Options: fastOpts(1)}
		if err := sendFrame(probe, p2p.KindDispatchRequest, worker1ID, seq, req); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for w.ActiveRuns() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("want 2 concurrent runs under colliding (id, seq), have %d — second instance's run was treated as a duplicate", w.ActiveRuns())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Cancel instance-a's run only: exactly one run must abort.
	if err := sendFrame(probe, p2p.KindDispatchCancel, worker1ID, seq, cancelBody{Token: "instance-a"}); err != nil {
		t.Fatal(err)
	}
	m, ok := probe.Recv(5 * time.Second)
	if !ok || m.Kind != p2p.KindDispatchError {
		t.Fatalf("expected instance-a's canceled error frame, got (%v, %v)", m.Kind, ok)
	}
	var eb errorBody
	if err := decodeBody(m, &eb); err != nil || !eb.Canceled {
		t.Fatalf("error frame %+v (%v), want canceled", eb, err)
	}
	if n := w.ActiveRuns(); n != 1 {
		t.Fatalf("after one targeted cancel: %d active runs, want 1 (instance-b untouched)", n)
	}
	if err := sendFrame(probe, p2p.KindDispatchCancel, worker1ID, seq, cancelBody{Token: "instance-b"}); err != nil {
		t.Fatal(err)
	}
	for w.ActiveRuns() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("instance-b's run never canceled")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDispatcherRejectsForeignResults pins the dispatcher side of the
// instance-token contract: a result frame whose token is not ours —
// a predecessor instance's orphaned run reporting in on a colliding
// (worker, sequence) pair — must be dropped, never adopted as our
// job's result.
func TestDispatcherRejectsForeignResults(t *testing.T) {
	hub := p2p.NewChanHub()
	imposter := hub.Node(worker1ID)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for ctx.Err() == nil {
			m, ok := imposter.Recv(10 * time.Millisecond)
			if !ok {
				continue
			}
			switch m.Kind {
			case p2p.KindDispatchHello:
				_ = sendFrame(imposter, p2p.KindDispatchHello, m.From, m.Round, helloBody{Proto: proto, Capacity: 1})
			case p2p.KindHeartbeat:
				_ = imposter.Send(p2p.Message{Kind: p2p.KindAck, To: m.From, Round: m.Round})
			case p2p.KindDispatchRequest:
				var req requestBody
				if err := decodeBody(m, &req); err != nil {
					continue
				}
				// A stale orphan's result lands first: same worker, same
				// sequence, different instance token. Then the real one.
				_, _ = sendResult(imposter, m.From, m.Round, resultBody{
					Token: "stale-instance", Result: hadfl.Result{Scheme: req.Scheme, Accuracy: 0.99, Rounds: 9},
				}, []float64{6, 6, 6})
				_, _ = sendResult(imposter, m.From, m.Round, resultBody{
					Token: req.Token, Result: hadfl.Result{Scheme: req.Scheme, Accuracy: 0.5, Rounds: 2},
				}, []float64{1, 2})
			}
		}
	}()
	reg := metrics.NewRegistry()
	d, err := New(Config{
		Transport:      hub.Node(dispatcherID),
		Workers:        []int{worker1ID},
		HeartbeatEvery: 20 * time.Millisecond,
		RecvTimeout:    10 * time.Millisecond,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	readyCtx, cancelReady := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelReady()
	if err := d.WaitReady(readyCtx, 1); err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(context.Background(), hadfl.SchemeHADFL, fastOpts(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy != 0.5 || res.Rounds != 2 || len(res.FinalParams) != 2 {
		t.Fatalf("adopted a foreign instance's result: %+v", res)
	}
	if reg.Counter("dispatch_stray_results_total") != 1 {
		t.Fatalf("dispatch_stray_results_total = %d, want 1", reg.Counter("dispatch_stray_results_total"))
	}
}

// TestDispatcherIgnoresVersionSkewedWorker: a worker that rejects our
// hellos (protocol mismatch) must never be marked live — no frame it
// sends proves compatibility — so runs route to the local fallback
// instead of failing non-transiently on it.
func TestDispatcherIgnoresVersionSkewedWorker(t *testing.T) {
	hub := p2p.NewChanHub()
	skewed := hub.Node(worker1ID)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for ctx.Err() == nil {
			m, ok := skewed.Recv(10 * time.Millisecond)
			if !ok {
				continue
			}
			if m.Kind == p2p.KindDispatchHello {
				// What any worker speaking another protocol version does:
				// reject the registration with an error frame.
				_ = sendFrame(skewed, p2p.KindDispatchError, m.From, m.Round, errorBody{Message: "version mismatch"})
			}
		}
	}()
	reg := metrics.NewRegistry()
	d, err := New(Config{
		Transport:      hub.Node(dispatcherID),
		Workers:        []int{worker1ID},
		HeartbeatEvery: 20 * time.Millisecond,
		LivenessGrace:  100 * time.Millisecond,
		RecvTimeout:    10 * time.Millisecond,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Give several hello/reject cycles a chance to run.
	time.Sleep(200 * time.Millisecond)
	if n := d.LiveWorkers(); n != 0 {
		t.Fatalf("version-skewed worker marked live (%d)", n)
	}
	res, err := d.Run(context.Background(), hadfl.SchemeHADFL, fastOpts(13), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Scheme != hadfl.SchemeHADFL {
		t.Fatalf("fallback result %+v", res)
	}
	if reg.Counter("dispatch_local_fallback_total") != 1 {
		t.Fatalf("dispatch_local_fallback_total = %d, want 1", reg.Counter("dispatch_local_fallback_total"))
	}
	if reg.Counter("dispatch_stray_errors_total") == 0 {
		t.Fatal("rejections never surfaced on the stray-error counter")
	}
}

// TestWorkerRejectsBadRequests exercises the worker's validation edge:
// wrong protocol version, fingerprint mismatch, junk options — every
// one must come back as an error frame carrying the right sequence,
// never silence or a crash.
func TestWorkerRejectsBadRequests(t *testing.T) {
	hub := p2p.NewChanHub()
	w, err := NewWorker(WorkerConfig{Transport: hub.Node(worker1ID), RecvTimeout: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = w.Serve(ctx) }()
	probe := hub.Node(dispatcherID)

	goodFP, err := hadfl.Fingerprint(hadfl.SchemeHADFL, fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]requestBody{
		"wrong proto":          {Proto: proto + 1, JobID: goodFP, Scheme: hadfl.SchemeHADFL, Options: fastOpts(1)},
		"fingerprint mismatch": {Proto: proto, JobID: "deadbeef", Scheme: hadfl.SchemeHADFL, Options: fastOpts(1)},
		"unknown scheme":       {Proto: proto, JobID: goodFP, Scheme: "nope", Options: fastOpts(1)},
		"invalid options":      {Proto: proto, JobID: goodFP, Scheme: hadfl.SchemeHADFL, Options: hadfl.Options{Powers: []float64{-4}}},
	}
	seq := 100
	for name, req := range cases {
		seq++
		if err := sendFrame(probe, p2p.KindDispatchRequest, worker1ID, seq, req); err != nil {
			t.Fatalf("%s: send: %v", name, err)
		}
		m, ok := probe.Recv(2 * time.Second)
		if !ok {
			t.Fatalf("%s: no reply", name)
		}
		if m.Kind != p2p.KindDispatchError || m.Round != seq {
			t.Fatalf("%s: reply %v seq %d, want error frame seq %d", name, m.Kind, m.Round, seq)
		}
		var eb errorBody
		if err := decodeBody(m, &eb); err != nil {
			t.Fatalf("%s: decode reply: %v", name, err)
		}
		if eb.Message == "" {
			t.Errorf("%s: empty error message", name)
		}
	}
	// A malformed frame (truncated body claim) must be rejected too.
	m, _ := p2p.NewDispatchFrame(p2p.KindDispatchRequest, worker1ID, 999, []byte(`{"proto":1`))
	if err := probe.Send(m); err != nil {
		t.Fatal(err)
	}
	if rep, ok := probe.Recv(2 * time.Second); !ok || rep.Kind != p2p.KindDispatchError {
		t.Fatalf("malformed request: reply (%v, %v), want an error frame", rep.Kind, ok)
	}
}

// TestSimnetDispatchTraceStitching pins the cross-node tracing
// contract: one dispatched run yields ONE trace in the dispatcher's
// ring whose spans cover both sides of the wire — dispatch.run and
// dispatch.request from the dispatcher, worker.run and worker.result
// shipped home on the result frame — all under a single TraceID, with
// the worker.run span parented under the propagated dispatch.request.
func TestSimnetDispatchTraceStitching(t *testing.T) {
	h := startHarness(t, []int{worker1ID}, 1, nil)
	if _, err := h.disp.Run(context.Background(), hadfl.SchemeHADFL, fastOpts(21), nil); err != nil {
		t.Fatal(err)
	}
	traces := h.tracer.Traces()
	if len(traces) != 1 {
		t.Fatalf("one dispatched run produced %d traces, want 1", len(traces))
	}
	tr := traces[0]
	byName := make(map[string]trace.SpanData)
	for _, sd := range tr.Spans {
		if sd.TraceID != tr.TraceID {
			t.Fatalf("span %q carries trace %s, filed under %s", sd.Name, sd.TraceID, tr.TraceID)
		}
		byName[sd.Name] = sd
	}
	for _, name := range []string{"dispatch.run", "dispatch.request", "worker.run", "worker.result"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("trace is missing span %q (have %d spans)", name, len(tr.Spans))
		}
	}
	if byName["dispatch.request"].Parent != byName["dispatch.run"].SpanID {
		t.Fatal("dispatch.request is not a child of dispatch.run")
	}
	if byName["worker.run"].Parent != byName["dispatch.request"].SpanID {
		t.Fatal("worker.run did not stitch under the propagated dispatch.request span")
	}
	if byName["worker.result"].Parent != byName["worker.run"].SpanID {
		t.Fatal("worker.result is not a child of worker.run")
	}
	if byName["worker.run"].Attrs["scheme"] != hadfl.SchemeHADFL {
		t.Fatalf("worker.run attrs %+v", byName["worker.run"].Attrs)
	}
	// The run's histograms observed on the shared registry.
	if hs, ok := h.reg.Histogram("dispatch_rtt_seconds"); !ok || hs.Count == 0 {
		t.Fatal("dispatch_rtt_seconds never observed")
	}
	if hs, ok := h.reg.Histogram("dispatch_result_frame_bytes"); !ok || hs.Count == 0 {
		t.Fatal("dispatch_result_frame_bytes never observed")
	}
	if hs, ok := h.reg.Histogram("worker_run_seconds"); !ok || hs.Count == 0 {
		t.Fatal("worker_run_seconds never observed")
	}
}

// TestSimnetDispatchTraceOnFailure: a canceled run's trace still ships
// the worker-side spans home on the error frame, so failed runs are as
// legible as successful ones.
func TestSimnetDispatchTraceOnFailure(t *testing.T) {
	h := startHarness(t, []int{worker1ID}, 1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := hadfl.Options{Powers: []float64{2, 1}, TargetEpochs: 5000, Seed: 1}
	var once sync.Once
	_, err := h.disp.Run(ctx, hadfl.SchemeHADFL, opts, func(hadfl.RoundUpdate) {
		once.Do(cancel)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	var workerSpan *trace.SpanData
	for _, sd := range h.tracer.Spans() {
		if sd.Name == "worker.run" {
			sd := sd
			workerSpan = &sd
		}
	}
	if workerSpan == nil {
		t.Fatal("canceled run shipped no worker.run span home")
	}
	if workerSpan.Error == "" {
		t.Fatal("canceled worker.run span carries no error")
	}
}
