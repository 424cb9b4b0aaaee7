package baselines

import (
	"context"
	"fmt"
	"math"

	"hadfl/internal/aggregate"
	"hadfl/internal/core"
	"hadfl/internal/device"
	"hadfl/internal/p2p"
	"hadfl/internal/simclock"
	"hadfl/internal/tensor"
)

// AsyncFLConfig tunes the centralized asynchronous-FL baseline with
// staleness-weighted aggregation — the optimization family the paper's
// related work discusses ([6] Xie et al., [7] Lu et al.): devices push
// updates to a central server the moment they finish, and the server
// down-weights stale contributions:
//
//	w_global ← (1−β_s)·w_global + β_s·w_device
//	β_s = BaseMix · (staleness + 1)^(−StalenessPower)
//
// where staleness counts how many global updates landed since the
// device last pulled. This scheme removes the synchronous barrier but
// keeps the central server in the data path — exactly the combination
// HADFL argues against (server pressure + wasted stale work).
//
// The shared run knobs live in the embedded core.RunConfig; LocalSteps
// there is the E steps each device trains before pushing (default 12).
type AsyncFLConfig struct {
	core.RunConfig
	BaseMix        float64 // β base in (0,1]
	StalenessPower float64 // exponent a ≥ 0 (0 = ignore staleness)
	Link           p2p.Link
	MaxUpdates     int
	EvalEvery      int // evaluate the global model every this many server updates
}

// DefaultAsyncFLConfig mirrors [6]'s polynomial staleness weighting.
func DefaultAsyncFLConfig() AsyncFLConfig {
	return AsyncFLConfig{
		RunConfig:      core.RunConfig{TargetEpochs: 60, Seed: 1, LocalSteps: 12},
		BaseMix:        0.6,
		StalenessPower: 0.5,
		Link:           p2p.Link{Latency: 0.005, Bandwidth: 1e9},
		MaxUpdates:     1 << 20,
		EvalEvery:      4,
	}
}

// RunAsyncFL executes the asynchronous baseline on the cluster, driven
// by the discrete-event engine: each device trains E steps, pushes its
// model to the server (paying upload time), receives the merged global
// (download time), and immediately starts the next cycle — no barriers,
// so fast devices update the server more often. There are no rounds to
// loop over, so it uses core.Loop for the shared state, the budget test
// and the curve only; a "round" is one server update.
//
// The events stay on one goroutine, in one order, at every Parallelism.
// What overlaps is the devices' arithmetic: a cycle's virtual charge
// (the E StepTime draws, which fix the upload's event time) is taken
// when the cycle starts, its forward/backward work goes to one of
// Parallelism workers, and the device's upload event joins that work
// before it reads the model. Nothing else touches a device between its
// cycle start and its upload, so no bit depends on the overlap.
//
// A canceled ctx stops scheduling new work within one device step; the
// engine then drains — every upload event still joins its device — and
// Result returns the error after the workers have exited.
func RunAsyncFL(ctx context.Context, c *core.Cluster, cfg AsyncFLConfig) (*core.Result, error) {
	if cfg.LocalSteps <= 0 {
		return nil, fmt.Errorf("baselines: LocalSteps %d", cfg.LocalSteps)
	}
	if cfg.BaseMix <= 0 || cfg.BaseMix > 1 {
		return nil, fmt.Errorf("baselines: BaseMix %v", cfg.BaseMix)
	}
	if cfg.StalenessPower < 0 {
		return nil, fmt.Errorf("baselines: StalenessPower %v", cfg.StalenessPower)
	}
	if cfg.EvalEvery <= 0 {
		return nil, fmt.Errorf("baselines: EvalEvery %d", cfg.EvalEvery)
	}
	engine := simclock.New()
	l := core.NewLoop(ctx, c, "async-fedavg", cfg.RunConfig, cfg.Link)
	l.Start()
	paramBytes := 8 * len(l.Global)
	transfer := cfg.Link.TransferTime(paramBytes)
	k := len(c.Devices)

	// pulledAt tracks the global version (= server updates so far) each
	// device last saw.
	pulledAt := make([]int, k)
	// devBuf is the reused per-device parameter gather buffer for the
	// server merge (events are serialized by the discrete-event engine,
	// so one buffer suffices).
	devBuf := make([]float64, len(l.Global))

	// A device has at most one cycle in flight: compute writes its
	// arithmetic's partial to parts[id] and signals done[id], which the
	// device's upload event waits on. queue feeds the workers in
	// cycle-start order. Both are sized to the one cycle per device, so
	// no send can block.
	parts := make([]device.Partial, k)
	done := make([]chan struct{}, k)
	for id := range done {
		done[id] = make(chan struct{}, 1)
	}
	compute := func(id int) {
		parts[id] = c.Device(id).ComputeN(ctx, cfg.LocalSteps)
		done[id] <- struct{}{}
	}
	// With one worker the event loop computes each cycle as it starts;
	// with more it only queues them.
	queue := make(chan int, k)
	start, goroutines := compute, 1
	if workers := min(cfg.Workers(), k); workers > 1 {
		start = func(id int) { queue <- id }
		goroutines += workers
	}

	var cycle func(d *device.Device)
	cycle = func(d *device.Device) {
		if l.Err() != nil {
			return
		}
		id := d.Cfg.ID
		elapsed := d.ChargeN(cfg.LocalSteps)
		l.Steps += cfg.LocalSteps
		start(id)
		// Train, then upload: the merge lands after compute + transfer.
		engine.Schedule(simclock.Time(elapsed+transfer), func() {
			<-done[id]
			if l.Err() != nil {
				return // canceled mid-training: abandon the push
			}
			staleness := max(l.Rounds-pulledAt[id], 0)
			beta := cfg.BaseMix * math.Pow(float64(staleness+1), -cfg.StalenessPower)
			// MergeInto computes beta·dev + (1−beta)·global.
			aggregate.MergeInto(l.Global, l.Global, d.ParametersInto(devBuf), beta)
			l.Rounds++
			// Up + down through the server.
			l.Comm.DeviceBytes[id] += int64(paramBytes)
			l.Comm.ServerBytes += int64(2 * paramBytes)
			l.Comm.Rounds = l.Rounds

			l.Now = float64(engine.Now())
			if l.Rounds%cfg.EvalEvery == 0 {
				l.Record(parts[id].MeanLoss(), core.RoundInfo{})
			}
			if !l.Next(cfg.MaxUpdates) {
				return
			}
			// Download the merged model and start the next cycle.
			engine.Schedule(simclock.Time(transfer), func() {
				if !l.Next(cfg.MaxUpdates) {
					return
				}
				d.SetParameters(l.Global)
				pulledAt[id] = l.Rounds
				cycle(d)
			})
		})
	}
	tensor.Concurrently(goroutines, func(w int) {
		if w > 0 {
			for id := range queue {
				compute(id)
			}
			return
		}
		defer close(queue)
		for _, d := range c.Devices {
			cycle(d)
		}
		engine.Run(0)
	})
	l.Now = float64(engine.Now())
	l.RecordFinal()
	return l.Result()
}
