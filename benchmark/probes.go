package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"hadfl"
	"hadfl/internal/aggregate"
	"hadfl/internal/core"
	"hadfl/internal/dataset"
	"hadfl/internal/experiments"
	"hadfl/internal/metrics"
	"hadfl/internal/p2p"
	"hadfl/internal/serve"
	"hadfl/internal/serve/dispatch"
	"hadfl/internal/strategy"
	"hadfl/internal/tensor"
	"hadfl/internal/trace"
)

// The layer probes time each layer's public functions from outside, on
// the shapes the workloads give them: the benchmark calls in, the
// programs are not instrumented.

// probeResult is one probe's figure with how it was taken.
type probeResult struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Batches int     `json:"batches"`
	PerCall int     `json:"calls_per_batch"`
}

// sink keeps results alive so the compiler cannot drop the probed call.
var sink any

// prober runs probes against one budget and records them.
type prober struct {
	budget time.Duration
	rec    *recorder
	out    map[string]probeResult
}

// seconds times fn and records the median seconds per call under name.
// Calls are timed in batches long enough for the clock to resolve; the
// median over batches sheds the odd preempted one.
func (p *prober) seconds(name string, fn func()) float64 {
	t0 := time.Now()
	fn() // first call pays allocation and page faults
	calls := 1
	for {
		start := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		if d := time.Since(start); d >= 200*time.Microsecond || calls >= 1<<20 {
			break
		}
		calls *= 2
	}
	var per []float64
	for deadline := time.Now().Add(p.budget); len(per) < 5 || (time.Now().Before(deadline) && len(per) < 2000); {
		start := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		per = append(per, time.Since(start).Seconds()/float64(calls))
	}
	v := median(per)
	p.out[name] = probeResult{Value: v, Unit: "s", Batches: len(per), PerCall: calls}
	p.rec.add(0, "probe", "probe", name, t0, time.Now())
	return v
}

func (p *prober) set(name, unit string, v float64) {
	p.out[name] = probeResult{Value: v, Unit: unit}
}

// clusterFor builds the cluster hadfl.RunContext would build for a
// workload at the default powers.
func clusterFor(w experiments.Workload, seed int64) (*core.Cluster, error) {
	return core.BuildCluster(core.ClusterSpec{
		Powers:       []float64{4, 2, 2, 1},
		BaseStepTime: w.BaseStepTime,
		Arch:         w.Arch,
		Train:        w.Train,
		Test:         w.Test,
		BatchSize:    w.BatchSize,
		LR:           w.LR,
		Momentum:     w.Momentum,
		WeightDecay:  w.WeightDecay,
		Seed:         seed,
	})
}

// runProbes measures every in-process per-layer metric.
func runProbes(ctx context.Context, e *runEnv, rec *recorder) (map[string]probeResult, error) {
	p := &prober{budget: 150 * time.Millisecond, rec: rec, out: make(map[string]probeResult)}
	if e.quick {
		p.budget = 20 * time.Millisecond
	}
	seed := e.seed
	for _, probe := range []func(context.Context, *prober, int64) error{
		probeCompute, probeWire, probeDispatch, probeServe,
	} {
		if err := probe(ctx, p, seed); err != nil {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return p.out, nil
}

// probeCompute covers hadfl, dataset, core, nn, tensor, eval, aggregate
// and strategy.
func probeCompute(_ context.Context, p *prober, seed int64) error {
	opts := hadfl.Options{Powers: []float64{2, 1}, TargetEpochs: 1, Seed: seed}
	p.seconds("hadfl.fingerprint_s", func() {
		sink = opts.Canonical()
		sink, _ = hadfl.Fingerprint(hadfl.SchemeHADFL, opts)
	})

	vec, img := dataset.DefaultSynthetic(), dataset.DefaultImages()
	vec.Seed, img.Seed = seed, seed
	p.seconds("dataset.generate_s.vector", func() { sink = dataset.Synthetic(vec) })
	p.seconds("dataset.generate_s.image", func() { sink = dataset.Images(img) })

	type family struct {
		name string
		w    experiments.Workload
	}
	families := []family{
		{"resmlp", experiments.ResNetWorkload(true, seed)},
		{"plainmlp", experiments.VGGWorkload(true, seed)},
		{"resnettiny", experiments.ResNetWorkload(false, seed)},
		{"vggtiny", experiments.VGGWorkload(false, seed)},
	}
	clusters := make(map[string]*core.Cluster)
	for _, f := range families {
		c, err := clusterFor(f.w, seed)
		if err != nil {
			return fmt.Errorf("building the %s cluster: %w", f.name, err)
		}
		clusters[f.name] = c
		dev := c.Devices[0]
		p.seconds("nn.train_step_s."+f.name, func() { sink, _ = dev.TrainStep() })
	}
	mlp, conv := clusters["resmlp"], clusters["resnettiny"]

	loader := dataset.NewLoader(families[0].w.Train, families[0].w.BatchSize, rand.New(rand.NewSource(seed)))
	p.seconds("dataset.loader_next_s", func() { sink, _ = loader.Next() })
	p.seconds("core.build_cluster_s", func() { sink, _ = clusterFor(families[0].w, seed) })
	gather := core.NewParamGather(len(mlp.InitParams))
	p.seconds("core.gather_s", func() { sink = gather.CollectAll(mlp) })

	model := mlp.Devices[0].Model
	buf := make([]float64, model.NumParams())
	p.seconds("nn.params_roundtrip_s", func() {
		buf = model.ParametersInto(buf)
		model.SetParameters(buf)
	})

	rng := rand.New(rand.NewSource(seed))
	for _, s := range matmulShapes {
		m, k, n := s[0], s[1], s[2]
		a, b, dst := tensor.New(m, k), tensor.New(n, k), tensor.New(m, n)
		for _, t := range []*tensor.Tensor{a, b} {
			for i, d := 0, t.Data(); i < len(d); i++ {
				d[i] = rng.NormFloat64()
			}
		}
		// The forward kernel of Dense and Conv2D: dst = a·bᵀ.
		sec := p.seconds(matmulName(s), func() { tensor.MatMulTransBInto(dst, a, b) })
		r := p.out[matmulName(s)]
		r.Value, r.Unit = 2*float64(m)*float64(k)*float64(n)/sec/1e9, "GFLOP/s"
		p.out[matmulName(s)] = r
	}
	x, cols := tensor.New(32, 8, 8, 8), tensor.New(32*8*8, 8*3*3)
	p.seconds("tensor.im2col_s", func() { tensor.Im2ColInto(cols, x, 3, 3, 1, 1) })

	// One conv training step with the kernel pool at one worker against
	// the same step at GOMAXPROCS (the default the probes above ran at).
	dev := conv.Devices[0]
	tensor.SetParallelism(1)
	serial := p.seconds("tensor.parallel_speedup", func() { sink, _ = dev.TrainStep() })
	tensor.SetParallelism(runtime.GOMAXPROCS(0))
	parallel := p.seconds("tensor.parallel_speedup", func() { sink, _ = dev.TrainStep() })
	p.set("tensor.parallel_speedup", "ratio", serial/parallel)

	p.seconds("eval.evaluate_s.mlp", func() { sink, _ = mlp.Evaluate(mlp.InitParams) })
	p.seconds("eval.evaluate_s.conv", func() { sink, _ = conv.Evaluate(conv.InitParams) })

	vectors := gather.CollectAll(mlp)
	mean := make([]float64, len(vectors[0]))
	p.seconds("aggregate.mean_into_s", func() { aggregate.MeanInto(mean, vectors) })
	flags := []bool{true, false, true, false}
	p.seconds("aggregate.partial_mean_s", func() { sink = aggregate.PartialMean(vectors, flags) })

	devs := make([]strategy.DeviceEstimate, len(mlp.Devices))
	for i, d := range mlp.Devices {
		devs[i] = strategy.DeviceEstimate{ID: i, EpochTime: d.EpochTime(), StepTime: d.StepTime(), Version: float64(10 * (i + 1))}
	}
	var genErr error
	p.seconds("strategy.generate_s", func() {
		sink, genErr = strategy.Generate(rng, strategy.Config{Tsync: 1, Np: 2}, devs)
	})
	return genErr
}

// probeWire covers p2p: framing, byte packing, the parameter codecs on
// a really trained vector, chunk streaming and one loopback TCP round
// trip.
func probeWire(ctx context.Context, p *prober, seed int64) error {
	opts := tinyJob(hadfl.SchemeHADFL, seed).Opts
	res, err := hadfl.RunContext(ctx, hadfl.SchemeHADFL, opts)
	if err != nil {
		return err
	}
	ref, err := hadfl.InitialParams(opts)
	if err != nil {
		return err
	}
	trained := res.FinalParams

	msg := p2p.Message{Kind: p2p.KindParams, From: 1, To: 2, Round: 3, Payload: trained}
	var wire []byte
	p.seconds("p2p.marshal_s", func() { wire = msg.Marshal() })
	var unmarshalErr error
	p.seconds("p2p.unmarshal_s", func() { sink, unmarshalErr = p2p.Unmarshal(wire) })
	if unmarshalErr != nil {
		return unmarshalErr
	}
	p.seconds("p2p.pack_bytes_s", func() { sink = p2p.PackBytes(wire) })

	for _, name := range p2p.ParamCodecNames() {
		codec, _ := p2p.ParamCodecByName(name)
		var r []float64
		if codec.UsesRef() {
			r = ref
		}
		var section []byte
		p.seconds("p2p.codec_encode_s."+name, func() { section, _ = codec.Encode(trained, r) })
		var decodeErr error
		p.seconds("p2p.codec_decode_s."+name, func() { sink, decodeErr = codec.Decode(section, r, len(trained)) })
		if decodeErr != nil {
			return fmt.Errorf("codec %s: %w", name, decodeErr)
		}
		p.set("p2p.codec_wire_ratio."+name, "ratio", float64(len(section))/float64(8*len(trained)))
	}

	body := make([]byte, 8<<20)
	rand.New(rand.NewSource(seed)).Read(body)
	var chunkErr error
	p.seconds("p2p.chunk_roundtrip_s", func() {
		frames, err := p2p.SplitChunks(p2p.KindDispatchResult, 1, 1, body)
		if err != nil {
			chunkErr = err
			return
		}
		var stream p2p.ChunkStream
		for _, f := range frames[:len(frames)-1] {
			if err := stream.Add(f); err != nil {
				chunkErr = err
				return
			}
		}
		got, err := stream.Finish(frames[len(frames)-1])
		if err != nil || len(got) != len(body) {
			chunkErr = fmt.Errorf("reassembled %d of %d bytes: %v", len(got), len(body), err)
		}
	})
	if chunkErr != nil {
		return fmt.Errorf("chunk round trip: %w", chunkErr)
	}
	return probeTCP(p, wire)
}

// probeTCP sends one result-sized frame from one loopback p2p node to
// another and waits for a one-word acknowledgement.
func probeTCP(p *prober, body []byte) error {
	a, err := p2p.ListenTCP(1, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := p2p.ListenTCP(2, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer b.Close()
	a.AddPeer(2, b.Addr())
	b.AddPeer(1, a.Addr())

	stop := make(chan struct{})
	var echo sync.WaitGroup
	echo.Add(1)
	go func() {
		defer echo.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if m, ok := b.Recv(50 * time.Millisecond); ok {
				_ = b.Send(p2p.Message{Kind: p2p.KindAck, To: 1, Round: m.Round}) // a lost ack shows as a timeout below
			}
		}
	}()
	defer echo.Wait()
	defer close(stop)

	frame, err := p2p.NewDispatchFrame(p2p.KindDispatchResult, 2, 1, body)
	if err != nil {
		return err
	}
	var rttErr error
	p.seconds("p2p.tcp_frame_rtt_s", func() {
		if err := a.Send(frame); err != nil {
			rttErr = err
			return
		}
		if _, ok := a.Recv(5 * time.Second); !ok {
			rttErr = errors.New("no acknowledgement within 5 s")
		}
	})
	if rttErr != nil {
		return fmt.Errorf("loopback TCP round trip: %w", rttErr)
	}
	return nil
}

// probeDispatch runs the tiny job through Dispatcher.Run over an
// in-process ChanHub (the whole protocol, no socket) and straight
// through the scheme registry.
func probeDispatch(ctx context.Context, p *prober, seed int64) error {
	opts := tinyJob(hadfl.SchemeHADFL, seed).Opts
	var runErr error
	p.seconds("dispatch.local_run_s", func() {
		if _, err := hadfl.RunContext(ctx, hadfl.SchemeHADFL, opts); err != nil {
			runErr = err
		}
	})

	hub := p2p.NewChanHub()
	w, err := dispatch.NewWorker(dispatch.WorkerConfig{Transport: hub.Node(1), RecvTimeout: 5 * time.Millisecond})
	if err != nil {
		return err
	}
	workerCtx, stopWorker := context.WithCancel(ctx)
	var serving sync.WaitGroup
	serving.Add(1)
	go func() {
		defer serving.Done()
		_ = w.Serve(workerCtx) // returns the cancellation below
	}()
	defer serving.Wait()
	defer stopWorker()
	d, err := dispatch.New(dispatch.Config{
		Transport:      hub.Node(0),
		Workers:        []int{1},
		HeartbeatEvery: 20 * time.Millisecond,
		RecvTimeout:    5 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer d.Close()
	readyCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := d.WaitReady(readyCtx, 1); err != nil {
		return fmt.Errorf("in-process worker did not register: %w", err)
	}
	p.seconds("dispatch.simnet_run_s", func() {
		if _, err := d.Run(ctx, hadfl.SchemeHADFL, opts, nil); err != nil {
			runErr = err
		}
	})
	return runErr
}

// probeServe drives serve's handlers in-process through httptest, and
// times what instrumentation costs the hot path.
func probeServe(ctx context.Context, p *prober, seed int64) error {
	srv, err := serve.New(serve.Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		return err
	}
	defer func() {
		closeCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		_ = srv.Close(closeCtx) // nothing is running by then
	}()
	spec := tinyJob(hadfl.SchemeHADFL, seed)
	job, _, err := srv.Submit(spec.Scheme, spec.Opts)
	if err != nil {
		return err
	}
	select {
	case <-job.Done():
	case <-ctx.Done():
		return ctx.Err()
	}
	if job.State() != serve.StateDone {
		return fmt.Errorf("probe job ended %s", job.State())
	}
	handler := srv.Handler()
	for name, url := range map[string]string{
		"serve.handler_get_s":       "/runs/" + job.ID,
		"serve.handler_get_curve_s": "/runs/" + job.ID + "?curve=1",
	} {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		code := 0
		p.seconds(name, func() {
			rr := httptest.NewRecorder()
			handler.ServeHTTP(rr, req)
			code = rr.Code
		})
		if code != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", url, code)
		}
	}
	cached := false
	p.seconds("serve.submit_hit_s", func() { _, cached, _ = srv.Submit(spec.Scheme, spec.Opts) })
	if !cached {
		return errors.New("resubmission was not a cache hit")
	}
	// A rate high enough to admit every call, so the GCRA arithmetic
	// runs rather than the rate-0 shortcut.
	bucket := serve.NewTokenBucket(1e9, 1<<20)
	p.seconds("serve.ratelimit_allow_s", func() { sink = bucket.Allow() })

	reg := metrics.NewRegistry()
	p.seconds("metrics.observe_s", func() { reg.Observe("queue_wait_seconds", 0.001) })
	tracer := trace.NewTracer(0)
	p.seconds("trace.span_s", func() {
		_, span := trace.Start(ctx, tracer, "probe")
		span.End()
	})
	return nil
}
