package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"hadfl/internal/device"
	"hadfl/internal/p2p"
)

func warmUpLoop(t *testing.T, ctx context.Context, par int) *Loop {
	t.Helper()
	c, err := BuildCluster(testSpec(t, 70))
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{TargetEpochs: 4, Seed: 70, Parallelism: par}
	return NewLoop(ctx, c, "warm-up", cfg, p2p.Link{Latency: 0.005, Bandwidth: 1e9})
}

// WarmUp is one Train over every device: each fires only after the
// join — when it runs, every device, not just its own, has finished
// warming up — and in device order, whatever the Parallelism.
func TestWarmUpCallsEachInDeviceOrderAfterJoin(t *testing.T) {
	for _, par := range []int{1, 2, 4} {
		l := warmUpLoop(t, context.Background(), par)
		var order []int
		steps, slowest := 0, 0.0
		l.WarmUp(2, 0.1, func(d *device.Device, calc float64) error {
			for _, o := range l.C.Devices {
				if want := 2 * o.Loader.BatchesPerEpoch(); o.Version != want {
					t.Errorf("Parallelism %d: each(%d) ran with device %d at step %d of %d",
						par, d.Cfg.ID, o.Cfg.ID, o.Version, want)
				}
			}
			if calc != d.ComputeTime {
				t.Errorf("Parallelism %d: each(%d) got calc %v, device measured %v", par, d.Cfg.ID, calc, d.ComputeTime)
			}
			order = append(order, d.Cfg.ID)
			steps += d.Version
			slowest = max(slowest, calc)
			return nil
		})
		if len(order) != len(l.All) {
			t.Fatalf("Parallelism %d: each called for %v, want every device", par, order)
		}
		for i, id := range order {
			if id != l.All[i] {
				t.Fatalf("Parallelism %d: each order %v, want %v", par, order, l.All)
			}
		}
		if l.Steps != steps || l.Now != slowest {
			t.Fatalf("Parallelism %d: Steps %d Now %v, want %d and %v", par, l.Steps, l.Now, steps, slowest)
		}
		if _, err := l.Result(); err != nil {
			t.Fatalf("Parallelism %d: %v", par, err)
		}
	}
}

// cancelOnPoll cancels itself at the nth Err call, which the device
// step loops make before every step: a cancel that lands mid-warm-up
// at every Parallelism, with no clock involved.
type cancelOnPoll struct {
	context.Context
	cancel context.CancelFunc
	polls  atomic.Int64
	at     int64
}

func (c *cancelOnPoll) Err() error {
	if c.polls.Add(1) == c.at {
		c.cancel()
	}
	return c.Context.Err()
}

func TestWarmUpCanceledNeverCallsEach(t *testing.T) {
	for _, par := range []int{1, 2, 4} {
		inner, cancel := context.WithCancel(context.Background())
		ctx := &cancelOnPoll{Context: inner, cancel: cancel, at: 9}
		l := warmUpLoop(t, ctx, par)
		l.WarmUp(2, 0.1, func(d *device.Device, _ float64) error {
			t.Errorf("Parallelism %d: each(%d) called on a canceled warm-up", par, d.Cfg.ID)
			return nil
		})
		partial := false
		for _, d := range l.C.Devices {
			partial = partial || d.Version < 2*d.Loader.BatchesPerEpoch()
		}
		if !partial {
			t.Fatalf("Parallelism %d: the cancel did not land during warm-up", par)
		}
		if res, err := l.Result(); res != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("Parallelism %d: Result = %v, %v; want context.Canceled", par, res, err)
		}
		cancel()
	}
}
