package dispatch

// Dispatch-overhead benchmarks: the same tiny run executed straight
// through hadfl.RunContext (the local pool's path) and through the
// full simnet dispatch round trip (request frame → worker execution →
// round/result frames). The difference is the protocol's per-job cost:
// encode/decode, byte-packing and channel hops — there is no socket in
// the loop. BENCHMARK.json tracks the same pair as
// dispatch.local_run_s and dispatch.simnet_run_s; by hand:
//
//	go test -run '^$' -bench BenchmarkDispatch -benchmem ./internal/serve/dispatch

import (
	"context"
	"testing"
	"time"

	"hadfl"
	"hadfl/internal/p2p"
)

func benchOpts() hadfl.Options {
	return hadfl.Options{Powers: []float64{2, 1}, TargetEpochs: 1, Seed: 1}
}

func BenchmarkDispatchLocal(b *testing.B) {
	opts := benchOpts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := localRunner(context.Background(), hadfl.SchemeHADFL, opts, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDispatchSimnet(b *testing.B) {
	hub := p2p.NewChanHub()
	w, err := NewWorker(WorkerConfig{Transport: hub.Node(1), RecvTimeout: 5 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = w.Serve(ctx) }()
	d, err := New(Config{
		Transport:      hub.Node(0),
		Workers:        []int{1},
		HeartbeatEvery: 20 * time.Millisecond,
		RecvTimeout:    5 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	readyCtx, cancelReady := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelReady()
	if err := d.WaitReady(readyCtx, 1); err != nil {
		b.Fatal(err)
	}
	opts := benchOpts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Run(context.Background(), hadfl.SchemeHADFL, opts, nil); err != nil {
			b.Fatal(err)
		}
	}
}
