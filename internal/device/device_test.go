package device

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"hadfl/internal/dataset"
	"hadfl/internal/nn"
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
	calc := d.WarmupCtx(context.Background(), 1, 0.1)
	if d.Opt.LR != lr {
		t.Fatalf("LR after warmup %v, want %v", d.Opt.LR, lr)
	}
	// 1 epoch = 10 batches at 0.5s each.
	if math.Abs(calc-5) > 1e-9 {
		t.Fatalf("warmup calc time %v, want 5", calc)
	}
}

func TestWarmupTimeReflectsPower(t *testing.T) {
	fast := newTestDevice(t, Config{ID: 0, Power: 4, BaseStepTime: 1})
	slow := newTestDevice(t, Config{ID: 1, Power: 1, BaseStepTime: 1})
	tf := fast.WarmupCtx(context.Background(), 1, 0.1)
	ts := slow.WarmupCtx(context.Background(), 1, 0.1)
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
