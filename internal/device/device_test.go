package device

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"hadfl/internal/dataset"
	"hadfl/internal/nn"
	"hadfl/internal/tensor"
)

func newTestDevice(t *testing.T, cfg Config) *Device {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	ds := dataset.Synthetic(dataset.SyntheticConfig{
		Samples: 120, Features: 8, Classes: 3, ModesPerClass: 1, NoiseStd: 0.3, Seed: 1,
	})
	model := nn.NewMLP(rng, 8, []int{16}, 3)
	opt := nn.NewSGD(0.1, 0.9, 0)
	loader := dataset.NewLoader(ds, 12, rand.New(rand.NewSource(2)))
	return New(cfg, model, opt, loader, rand.New(rand.NewSource(3)))
}

func TestStepTimeInverseToPower(t *testing.T) {
	fast := newTestDevice(t, Config{ID: 0, Power: 4, BaseStepTime: 1})
	slow := newTestDevice(t, Config{ID: 1, Power: 1, BaseStepTime: 1})
	if math.Abs(fast.StepTime()-0.25) > 1e-12 {
		t.Fatalf("fast StepTime = %v", fast.StepTime())
	}
	if math.Abs(slow.StepTime()-1) > 1e-12 {
		t.Fatalf("slow StepTime = %v", slow.StepTime())
	}
}

func TestTrainStepAdvancesVersionAndTime(t *testing.T) {
	d := newTestDevice(t, Config{ID: 0, Power: 2, BaseStepTime: 1})
	loss, elapsed := d.TrainStep()
	if loss <= 0 {
		t.Fatalf("loss = %v", loss)
	}
	if d.Version != 1 || d.StepsSinceSync != 1 {
		t.Fatalf("version %d stepsSinceSync %d", d.Version, d.StepsSinceSync)
	}
	if math.Abs(elapsed-0.5) > 1e-12 || math.Abs(d.ComputeTime-0.5) > 1e-12 {
		t.Fatalf("elapsed %v computeTime %v", elapsed, d.ComputeTime)
	}
}

func TestTrainStepsLearns(t *testing.T) {
	d := newTestDevice(t, Config{ID: 0, Power: 1, BaseStepTime: 1})
	ctx := context.Background()
	first := d.TrainN(ctx, 5).MeanLoss()
	var last float64
	for i := 0; i < 20; i++ {
		last = d.TrainN(ctx, 5).MeanLoss()
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %v → %v", first, last)
	}
}

func TestWarmupRestoresLR(t *testing.T) {
	d := newTestDevice(t, Config{ID: 0, Power: 2, BaseStepTime: 1})
	lr := d.Opt.LR
	p := d.WarmupCtx(context.Background(), 1, 0.1)
	if d.Opt.LR != lr {
		t.Fatalf("LR after warmup %v, want %v", d.Opt.LR, lr)
	}
	// 1 epoch = 10 batches at 0.5s each.
	if p.Steps != 10 || math.Abs(p.Elapsed-5) > 1e-9 {
		t.Fatalf("warmup ran %d steps in %v, want 10 in 5", p.Steps, p.Elapsed)
	}
}

func TestWarmupTimeReflectsPower(t *testing.T) {
	fast := newTestDevice(t, Config{ID: 0, Power: 4, BaseStepTime: 1})
	slow := newTestDevice(t, Config{ID: 1, Power: 1, BaseStepTime: 1})
	tf := fast.WarmupCtx(context.Background(), 1, 0.1).Elapsed
	ts := slow.WarmupCtx(context.Background(), 1, 0.1).Elapsed
	if math.Abs(ts/tf-4) > 1e-9 {
		t.Fatalf("warmup ratio %v, want 4 (power 4:1)", ts/tf)
	}
}

func TestEpochTime(t *testing.T) {
	d := newTestDevice(t, Config{ID: 0, Power: 2, BaseStepTime: 1})
	// 120 samples / batch 12 = 10 batches; at 0.5s each → 5s.
	if math.Abs(d.EpochTime()-5) > 1e-12 {
		t.Fatalf("EpochTime = %v", d.EpochTime())
	}
}

func TestSetParametersResetsSyncCounterAndMomentum(t *testing.T) {
	d := newTestDevice(t, Config{ID: 0, Power: 1, BaseStepTime: 1})
	d.TrainN(context.Background(), 3)
	if d.StepsSinceSync != 3 {
		t.Fatalf("StepsSinceSync = %d", d.StepsSinceSync)
	}
	p := d.Parameters()
	d.SetParameters(p)
	if d.StepsSinceSync != 0 {
		t.Fatal("SetParameters must reset StepsSinceSync")
	}
	if d.Version != 3 {
		t.Fatal("SetParameters must not reset the global version counter")
	}
}

func TestJitterChangesStepTime(t *testing.T) {
	d := newTestDevice(t, Config{ID: 0, Power: 1, BaseStepTime: 1, Jitter: 0.3})
	a, b := d.StepTime(), d.StepTime()
	if a == b {
		t.Fatal("jittered step times should differ")
	}
	if a <= 0 || b <= 0 {
		t.Fatal("step times must stay positive")
	}
}

func TestDriftScalesStepTime(t *testing.T) {
	d := newTestDevice(t, Config{ID: 0, Power: 1, BaseStepTime: 1})
	d.SetDrift(0.5)
	if math.Abs(d.StepTime()-2) > 1e-12 {
		t.Fatalf("StepTime with drift 0.5 = %v, want 2", d.StepTime())
	}
}

func TestAliveAtSchedule(t *testing.T) {
	never := newTestDevice(t, Config{ID: 0, Power: 1, BaseStepTime: 1})
	if !never.AliveAt(1e9) {
		t.Fatal("device with no schedule must always be alive")
	}
	dies := newTestDevice(t, Config{ID: 1, Power: 1, BaseStepTime: 1, FailAt: 10})
	if !dies.AliveAt(9.9) || dies.AliveAt(10) || dies.AliveAt(100) {
		t.Fatal("FailAt schedule wrong")
	}
	flaky := newTestDevice(t, Config{ID: 2, Power: 1, BaseStepTime: 1, FailAt: 10, RecoverAt: 20})
	if !flaky.AliveAt(5) || flaky.AliveAt(15) || !flaky.AliveAt(25) {
		t.Fatal("FailAt/RecoverAt schedule wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := dataset.Synthetic(dataset.SyntheticConfig{Samples: 10, Features: 2, Classes: 2, NoiseStd: 0.1, Seed: 1})
	model := nn.NewMLP(rng, 2, nil, 2)
	opt := nn.NewSGD(0.1, 0, 0)
	loader := dataset.NewLoader(ds, 2, rng)
	for _, cfg := range []Config{
		{Power: 0, BaseStepTime: 1},
		{Power: 1, BaseStepTime: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg, model, opt, loader, rng)
		}()
	}
}

// A steady-state device step allocates nothing, alone and under
// concurrent devices (tensor.Concurrently — what Loop.Train and asyncfl
// hold).
func TestTrainStepZeroAllocUnderConcurrentDevices(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ds := dataset.Synthetic(dataset.SyntheticConfig{
		Samples: 256, Features: 32, Classes: 10, ModesPerClass: 1, NoiseStd: 0.3, Seed: 1,
	})
	d := New(Config{ID: 0, Power: 1, BaseStepTime: 1}, nn.NewResMLP(rng, 32, 32, 2, 10),
		nn.NewSGD(0.05, 0.9, 1e-4), dataset.NewLoader(ds, 64, rand.New(rand.NewSource(2))), nil)
	step := func() { d.TrainStep() }
	for i := 0; i < 3; i++ { // warm up layer buffers, optimizer state
		step()
	}
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Errorf("a lone step allocates %.1f times, want 0", allocs)
	}
	tensor.Concurrently(2, func(w int) {
		if w != 0 {
			return
		}
		if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
			t.Errorf("step under concurrent devices allocates %.1f times, want 0", allocs)
		}
	})
}

// A run of steps taken apart — all the virtual charges first, then all
// the arithmetic — is the same run: asyncfl relies on it to know a
// cycle's end time before computing it.
func TestChargeThenComputeIsTrainN(t *testing.T) {
	cfg := Config{ID: 0, Power: 2, BaseStepTime: 1, Jitter: 0.3}
	whole, split := newTestDevice(t, cfg), newTestDevice(t, cfg)
	ctx := context.Background()
	for cycle := 0; cycle < 3; cycle++ {
		want := whole.TrainN(ctx, 7)
		elapsed := split.ChargeN(7)
		got := split.ComputeN(ctx, 7)
		got.Elapsed = elapsed
		if got != want {
			t.Fatalf("cycle %d: split partial %+v, TrainN %+v", cycle, got, want)
		}
	}
	if split.ComputeTime != whole.ComputeTime || split.Version != whole.Version ||
		split.StepsSinceSync != whole.StepsSinceSync {
		t.Fatalf("counters differ: %v/%d/%d vs %v/%d/%d", split.ComputeTime, split.Version,
			split.StepsSinceSync, whole.ComputeTime, whole.Version, whole.StepsSinceSync)
	}
	wp, sp := whole.Parameters(), split.Parameters()
	for i := range wp {
		if math.Float64bits(wp[i]) != math.Float64bits(sp[i]) {
			t.Fatalf("parameter %d differs: %v vs %v", i, sp[i], wp[i])
		}
	}
}
