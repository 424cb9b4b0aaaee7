package main

import (
	"context"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"hadfl"
	"hadfl/internal/metrics"
	"hadfl/internal/p2p"
	"hadfl/internal/serve/dispatch"
)

func TestRunRejectsBadFlags(t *testing.T) {
	var sb, eb strings.Builder
	if err := run([]string{"-not-a-flag"}, &sb, &eb, nil, nil); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run([]string{"-id", "0"}, &sb, &eb, nil, nil); err == nil {
		t.Fatal("dispatcher-reserved id accepted")
	}
	if err := run([]string{"-listen", "256.256.256.256:99999"}, &sb, &eb, nil, nil); err == nil {
		t.Fatal("unbindable address accepted")
	}
}

// TestWorkerSmoke boots the binary's main path on a loopback port and
// drives it with a real dispatcher: registration, heartbeat liveness,
// one dispatched run round-tripping over actual TCP, shutdown. The run
// must complete remotely (a discarded remote result would silently
// fall back to a local run) and its parameters must be bit-identical
// to a local run of the same options.
func TestWorkerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real training run over TCP in -short mode")
	}
	var sb strings.Builder
	ready := make(chan string, 1)
	quit := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{"-listen", "127.0.0.1:0", "-id", "1"}, &sb, io.Discard, ready, quit)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errCh:
		t.Fatalf("worker died early: %v (output %q)", err, sb.String())
	case <-time.After(10 * time.Second):
		t.Fatal("worker never became ready")
	}

	node, err := p2p.ListenTCP(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	node.AddPeer(1, addr)
	reg := metrics.NewRegistry()
	d, err := dispatch.New(dispatch.Config{
		Transport:      node,
		Workers:        []int{1},
		ReplyAddr:      node.Addr(),
		HeartbeatEvery: 50 * time.Millisecond,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := d.WaitReady(ctx, 1); err != nil {
		t.Fatalf("worker never registered: %v", err)
	}

	opts := hadfl.Options{Powers: []float64{2, 1}, TargetEpochs: 2, Seed: 7}
	rounds := 0
	res, err := d.Run(ctx, hadfl.SchemeHADFL, opts, func(hadfl.RoundUpdate) { rounds++ })
	if err != nil {
		t.Fatalf("dispatched run over TCP: %v", err)
	}
	if res.Accuracy <= 0 || res.Rounds == 0 || len(res.FinalParams) == 0 || rounds == 0 {
		t.Fatalf("degenerate dispatched result %+v (rounds streamed %d)", res, rounds)
	}
	if n := reg.Counter("dispatch_remote_total"); n != 1 {
		t.Fatalf("dispatch_remote_total = %d, want 1", n)
	}
	if n := reg.Counter("dispatch_local_fallback_total"); n != 0 {
		t.Fatalf("dispatch_local_fallback_total = %d, want 0", n)
	}
	local, err := hadfl.RunContext(ctx, hadfl.SchemeHADFL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FinalParams) != len(local.FinalParams) {
		t.Fatalf("%d params over TCP, %d locally", len(res.FinalParams), len(local.FinalParams))
	}
	for i, p := range local.FinalParams {
		if math.Float64bits(res.FinalParams[i]) != math.Float64bits(p) {
			t.Fatalf("FinalParams[%d]: %v over TCP, %v locally", i, res.FinalParams[i], p)
		}
	}

	close(quit)
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker never shut down")
	}
	if out := sb.String(); !strings.Contains(out, "listening on") || !strings.Contains(out, "shutting down") {
		t.Fatalf("output:\n%s", out)
	}
}
