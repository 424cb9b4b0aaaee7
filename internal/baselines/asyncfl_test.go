package baselines

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"hadfl/internal/core"
)

func TestAsyncFLConverges(t *testing.T) {
	c := testCluster(t, 11)
	cfg := DefaultAsyncFLConfig()
	cfg.TargetEpochs = 12
	res, err := RunAsyncFL(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	best, _ := res.Series.MaxAccuracy()
	if best.Accuracy < 0.6 {
		t.Fatalf("async FL reached only %.2f", best.Accuracy)
	}
	if res.Rounds == 0 {
		t.Fatal("no server updates")
	}
}

func TestAsyncFLUsesCentralServer(t *testing.T) {
	c := testCluster(t, 12)
	cfg := DefaultAsyncFLConfig()
	cfg.TargetEpochs = 4
	res, err := RunAsyncFL(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The defining contrast to HADFL: the central server relays every
	// update (2M per update).
	if res.Comm.ServerBytes == 0 {
		t.Fatal("async centralized FL must load the server")
	}
	M := int64(8 * len(c.InitParams))
	want := 2 * M * int64(res.Rounds)
	if res.Comm.ServerBytes != want {
		t.Fatalf("server bytes %d, want %d", res.Comm.ServerBytes, want)
	}
}

func TestAsyncFLFastDeviceUpdatesMore(t *testing.T) {
	c := testCluster(t, 13) // powers [4,2,2,1]
	cfg := DefaultAsyncFLConfig()
	cfg.TargetEpochs = 6
	res, err := RunAsyncFL(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No barrier: the power-4 device pushes ~4× as many updates as the
	// power-1 device, visible in its upload bytes.
	fast := res.Comm.DeviceBytes[0]
	slow := res.Comm.DeviceBytes[3]
	if fast < 2*slow {
		t.Fatalf("fast device bytes %d not ≫ slow device %d", fast, slow)
	}
}

func TestAsyncFLTimeAdvancesMonotonically(t *testing.T) {
	c := testCluster(t, 14)
	cfg := DefaultAsyncFLConfig()
	cfg.TargetEpochs = 4
	res, err := RunAsyncFL(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Series.Points
	for i := 1; i < len(pts); i++ {
		if pts[i].Time < pts[i-1].Time {
			t.Fatalf("time regressed at point %d", i)
		}
	}
}

func TestAsyncFLValidation(t *testing.T) {
	c := testCluster(t, 15)
	for _, mut := range []func(*AsyncFLConfig){
		func(cfg *AsyncFLConfig) { cfg.LocalSteps = 0 },
		func(cfg *AsyncFLConfig) { cfg.BaseMix = 0 },
		func(cfg *AsyncFLConfig) { cfg.BaseMix = 1.5 },
		func(cfg *AsyncFLConfig) { cfg.StalenessPower = -1 },
		func(cfg *AsyncFLConfig) { cfg.EvalEvery = 0 },
	} {
		cfg := DefaultAsyncFLConfig()
		mut(&cfg)
		if _, err := RunAsyncFL(context.Background(), c, cfg); err == nil {
			t.Errorf("invalid config accepted: %+v", cfg)
		}
	}
}

func TestAsyncFLStalenessWeighting(t *testing.T) {
	// With StalenessPower 0 every update mixes at BaseMix regardless of
	// staleness; with a large power, stale updates barely move the
	// global model. Both must run; the weighted variant should not be
	// wildly worse.
	run := func(power float64) float64 {
		c := testCluster(t, 16)
		cfg := DefaultAsyncFLConfig()
		cfg.TargetEpochs = 8
		cfg.StalenessPower = power
		res, err := RunAsyncFL(context.Background(), c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		best, _ := res.Series.MaxAccuracy()
		return best.Accuracy
	}
	uniform := run(0)
	weighted := run(1.0)
	if uniform < 0.5 || weighted < 0.5 {
		t.Fatalf("accuracy collapsed: uniform %.2f weighted %.2f", uniform, weighted)
	}
}

// Canceling mid-run surfaces ctx.Err() and leaves nothing behind: every
// in-flight cycle is joined and the compute workers have exited by the
// time RunAsyncFL returns. make test-race runs this under the race
// detector, which checks the hand-off of each device between the event
// loop and its worker.
func TestAsyncFLCancelJoinsWorkers(t *testing.T) {
	for _, par := range []int{1, 4} {
		c := testCluster(t, 16)
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		cfg := DefaultAsyncFLConfig()
		cfg.TargetEpochs = 1e6 // only the cancel ends this run
		cfg.Parallelism = par
		updates := 0
		cfg.OnRound = func(core.RoundInfo) {
			if updates++; updates == 3 {
				cancel()
			}
		}
		res, err := RunAsyncFL(ctx, c, cfg)
		cancel()
		if res != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("Parallelism %d: RunAsyncFL = %v, %v; want context.Canceled", par, res, err)
		}
		// A joined worker has called Done but may not have exited yet
		// (the race detector slows that tail down); poll until it has,
		// up to a deadline.
		after := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); after > before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			after = runtime.NumGoroutine()
		}
		if after > before {
			t.Fatalf("Parallelism %d: %d goroutines before the run, %d after", par, before, after)
		}
	}
}
