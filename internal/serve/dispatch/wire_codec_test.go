package dispatch

// Wire-codec and chunk-streaming suite: codec negotiation across mixed
// fleets, the >16 MiB chunked result path, exact-codec byte identity
// and the lossy codecs' drift bounds — all over the same simnet the
// e2e suite uses.

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"hadfl"
	"hadfl/internal/metrics"
	"hadfl/internal/p2p"
	"hadfl/internal/trace"
)

// startCodecHarness is startHarness with the codec knobs exposed: the
// dispatcher's preferred codec and the workers' advertised lists. The
// liveness grace is generous — these tests exercise the wire encoding,
// not failure detection, and a tight grace on a loaded 1-core CI host
// can mark the worker down mid-encode and silently fall back to local
// execution, voiding what the assertions think they proved.
func startCodecHarness(t *testing.T, codec string, workerCodecs []string, workerIDs []int, runner Runner) *harness {
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
			Capacity:    1,
			Codecs:      workerCodecs,
			Runner:      runner,
			RecvTimeout: 10 * time.Millisecond,
			Metrics:     h.reg,
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
		Codec:          codec,
		HeartbeatEvery: 50 * time.Millisecond,
		LivenessGrace:  5 * time.Second,
		RecvTimeout:    10 * time.Millisecond,
		Metrics:        h.reg,
		Tracer:         h.tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.disp = d
	readyCtx, cancelReady := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelReady()
	if err := d.WaitReady(readyCtx, len(workerIDs)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		h.stop()
		h.done.Wait()
		_ = h.disp.Close()
	})
	return h
}

func TestChooseCodec(t *testing.T) {
	all := p2p.ParamCodecNames()
	cases := []struct {
		preferred  string
		advertised []string
		want       string
	}{
		{p2p.ParamCodecRaw64, all, p2p.ParamCodecRaw64},
		{p2p.ParamCodecDelta, all, p2p.ParamCodecDelta},
		// Preference not advertised: the shared fallback wins.
		{p2p.ParamCodecTopK, []string{p2p.ParamCodecRaw64, p2p.ParamCodecF32}, p2p.ParamCodecRaw64},
		// A fleet member advertising nothing is legacy: no codec at all.
		{p2p.ParamCodecRaw64, nil, ""},
		// A worker somehow advertising only exotic codecs we did not ask
		// for: nothing shared, fall back to the legacy exchange.
		{p2p.ParamCodecDelta, []string{"zstd9000"}, ""},
	}
	for _, c := range cases {
		if got := chooseCodec(c.preferred, c.advertised); got != c.want {
			t.Errorf("chooseCodec(%q, %v) = %q, want %q", c.preferred, c.advertised, got, c.want)
		}
	}
}

// TestSimnetDispatchLegacyWorkerInterop pins mixed-fleet compatibility:
// a worker whose hello ack advertises no codecs (an older build) must
// be asked for the legacy exchange — request without a codec, result
// with FinalParams inline in the JSON — and its result adopted.
func TestSimnetDispatchLegacyWorkerInterop(t *testing.T) {
	hub := p2p.NewChanHub()
	legacy := hub.Node(worker1ID)
	var gotCodec atomic.Value
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for ctx.Err() == nil {
			m, ok := legacy.Recv(10 * time.Millisecond)
			if !ok {
				continue
			}
			switch m.Kind {
			case p2p.KindDispatchHello:
				// The pre-codec hello ack: proto + capacity, nothing else.
				_ = sendFrame(legacy, p2p.KindDispatchHello, m.From, m.Round, helloBody{Proto: proto, Capacity: 1})
			case p2p.KindHeartbeat:
				_ = legacy.Send(p2p.Message{Kind: p2p.KindAck, To: m.From, Round: m.Round})
			case p2p.KindDispatchRequest:
				var req requestBody
				if err := decodeBody(m, &req); err != nil {
					continue
				}
				gotCodec.Store(req.Codec)
				_ = sendFrame(legacy, p2p.KindDispatchResult, m.From, m.Round, resultBody{
					Token: req.Token, Scheme: req.Scheme, Accuracy: 0.75, Rounds: 3,
					FinalParams: []float64{1.5, -2.25, 3.125},
				})
			}
		}
	}()
	reg := metrics.NewRegistry()
	d, err := New(Config{
		Transport:      hub.Node(dispatcherID),
		Workers:        []int{worker1ID},
		Codec:          p2p.ParamCodecDelta, // preference is irrelevant to a legacy worker
		HeartbeatEvery: 50 * time.Millisecond,
		LivenessGrace:  5 * time.Second,
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
	if c, _ := gotCodec.Load().(string); c != "" {
		t.Fatalf("legacy worker was asked for codec %q, want none", c)
	}
	if res.Accuracy != 0.75 || len(res.FinalParams) != 3 || res.FinalParams[2] != 3.125 {
		t.Fatalf("legacy result mangled: %+v", res)
	}
	if n := reg.Counter("dispatch_wire_codec_raw64_total"); n != 0 {
		t.Fatalf("legacy exchange counted as a codec decode (%d)", n)
	}
	if n := reg.Counter("dispatch_wire_chunks_total"); n != 0 {
		t.Fatalf("legacy exchange produced %d chunk frames", n)
	}
}

// TestSimnetDispatchChunkedLargeResult is the chunk streamer's
// acceptance test: a result whose raw body exceeds the 16 MiB frame cap
// — impossible to ship before chunking — completes, bit for bit. The
// stub runner returns a ~17.6 MB parameter vector (2.2M float64s), so
// the raw64 split body must travel as multiple chunk frames.
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
		return &hadfl.Result{Scheme: scheme, Accuracy: 0.9, Rounds: 1, FinalParams: big}, nil
	}
	h := startCodecHarness(t, p2p.ParamCodecRaw64, nil, []int{worker1ID}, stub)
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
}

// TestSimnetDispatchDeltaByteIdentical runs a real job under the delta
// codec: both ends derive the run's initial model independently as the
// reference, and the dispatched result must still match the local run
// byte for byte — delta is exact by construction.
func TestSimnetDispatchDeltaByteIdentical(t *testing.T) {
	opts := fastOpts(17)
	local, err := hadfl.RunContext(context.Background(), hadfl.SchemeHADFL, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := startCodecHarness(t, p2p.ParamCodecDelta, nil, []int{worker1ID}, nil)
	remote, err := h.disp.Run(context.Background(), hadfl.SchemeHADFL, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := summaryJSON(t, remote), summaryJSON(t, local); string(got) != string(want) {
		t.Fatalf("delta-coded summary differs from local:\nremote %s\nlocal  %s", got, want)
	}
	if n := h.reg.Counter("dispatch_wire_codec_delta_total"); n != 1 {
		t.Fatalf("dispatch_wire_codec_delta_total = %d, want 1", n)
	}
	if n := h.reg.Counter("dispatch_wire_lossy_results_total"); n != 0 {
		t.Fatalf("delta counted as lossy (%d)", n)
	}
	raw := h.reg.Counter("dispatch_wire_raw_bytes_total")
	enc := h.reg.Counter("dispatch_wire_encoded_bytes_total")
	if raw != 8*int64(len(local.FinalParams)) {
		t.Fatalf("dispatch_wire_raw_bytes_total = %d, want %d", raw, 8*len(local.FinalParams))
	}
	if enc <= 0 || enc >= raw {
		t.Fatalf("delta encoded %d bytes of %d raw, want a real reduction", enc, raw)
	}
}

// TestSimnetDispatchLossyF32DriftBound dispatches under the f32 codec —
// deliberately lossy — and bounds the damage: every parameter within
// float32 relative precision of the local run's, model quality within
// 0.02 accuracy of it, and the loss visible on the lossy counter.
func TestSimnetDispatchLossyF32DriftBound(t *testing.T) {
	opts := fastOpts(23)
	local, err := hadfl.RunContext(context.Background(), hadfl.SchemeHADFL, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := startCodecHarness(t, p2p.ParamCodecF32, nil, []int{worker1ID}, nil)
	remote, err := h.disp.Run(context.Background(), hadfl.SchemeHADFL, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote.FinalParams) != len(local.FinalParams) {
		t.Fatalf("param count %d, want %d", len(remote.FinalParams), len(local.FinalParams))
	}
	for i, want := range local.FinalParams {
		if drift := math.Abs(remote.FinalParams[i] - want); drift > math.Abs(want)*1e-6+1e-30 {
			t.Fatalf("FinalParams[%d] drifted %v past float32 precision", i, drift)
		}
	}
	// The narrowed model must still be the same model in practice.
	_, acc, err := hadfl.EvaluateParams(opts, remote.FinalParams)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acc-local.Accuracy) > 0.02 {
		t.Fatalf("f32 model accuracy %v, local %v: drift past 0.02", acc, local.Accuracy)
	}
	if n := h.reg.Counter("dispatch_wire_codec_f32_total"); n != 1 {
		t.Fatalf("dispatch_wire_codec_f32_total = %d, want 1", n)
	}
	if n := h.reg.Counter("dispatch_wire_lossy_results_total"); n != 1 {
		t.Fatalf("dispatch_wire_lossy_results_total = %d, want 1 (trained float64s cannot all survive f32)", n)
	}
	// Half the bytes, by construction.
	raw := h.reg.Counter("dispatch_wire_raw_bytes_total")
	enc := h.reg.Counter("dispatch_wire_encoded_bytes_total")
	if enc*2 != raw {
		t.Fatalf("f32 encoded %d bytes of %d raw, want exactly half", enc, raw)
	}
}

// TestWorkerFallsBackToRaw64OnUnknownCodec: a request naming a codec
// this worker does not know (a newer dispatcher's invention) must come
// back raw64-encoded — never legacy, never an error.
func TestWorkerFallsBackToRaw64OnUnknownCodec(t *testing.T) {
	hub := p2p.NewChanHub()
	stub := func(ctx context.Context, scheme string, opts hadfl.Options, onRound func(hadfl.RoundUpdate)) (*hadfl.Result, error) {
		return &hadfl.Result{Scheme: scheme, Accuracy: 0.5, Rounds: 1, FinalParams: []float64{1, 2, 3}}, nil
	}
	w, err := NewWorker(WorkerConfig{Transport: hub.Node(worker1ID), Runner: stub, RecvTimeout: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = w.Serve(ctx) }()
	probe := hub.Node(dispatcherID)

	opts := fastOpts(1)
	fp, err := hadfl.Fingerprint(hadfl.SchemeHADFL, opts)
	if err != nil {
		t.Fatal(err)
	}
	req := requestBody{Proto: proto, Token: "tok", JobID: fp, Scheme: hadfl.SchemeHADFL, Options: opts, Codec: "zstd9000"}
	if err := sendFrame(probe, p2p.KindDispatchRequest, worker1ID, 7, req); err != nil {
		t.Fatal(err)
	}
	m, ok := probe.Recv(5 * time.Second)
	if !ok || m.Kind != p2p.KindDispatchResult {
		t.Fatalf("reply (%v, %v), want a result frame", m.Kind, ok)
	}
	body, err := p2p.DispatchBody(m)
	if err != nil {
		t.Fatal(err)
	}
	jsonData, paramData, err := decodeSplitBody(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(paramData) == 0 {
		t.Fatal("unknown codec fell back to the legacy inline exchange, want a raw64 split body")
	}
	var rb resultBody
	if err := json.Unmarshal(jsonData, &rb); err != nil {
		t.Fatal(err)
	}
	if rb.ParamCodec != p2p.ParamCodecRaw64 || rb.ParamCount != 3 || !rb.ParamExact {
		t.Fatalf("fallback encoding %+v, want exact raw64 of 3 params", rb)
	}
	if len(rb.FinalParams) != 0 {
		t.Fatal("split body still carries FinalParams inline")
	}
}
