// Package device models a federated training device: its local model
// replica, optimizer, data shard, and — crucially for HADFL — its
// (simulated) heterogeneous computing power. The paper emulates slow GPUs
// with sleep(); here a Device charges virtual compute time per mini-batch
// through a cost model, optionally with multiplicative jitter and
// mid-run power drift, so the runtime-prediction machinery has something
// real to track.
package device

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"hadfl/internal/dataset"
	"hadfl/internal/nn"
	"hadfl/internal/tensor"
)

// Config describes one simulated device.
type Config struct {
	ID int
	// Power is the relative computing power (the paper's "computing
	// power ratio" arrays like [4,2,2,1]). A device with Power p takes
	// BaseStepTime/p virtual seconds per mini-batch.
	Power float64
	// BaseStepTime is the virtual seconds per mini-batch at Power 1.
	BaseStepTime float64
	// Jitter is the stddev of multiplicative log-normal noise on each
	// step's duration (0 = deterministic).
	Jitter float64
	// FailAt, if positive, crashes the device at that virtual time.
	FailAt float64
	// RecoverAt, if positive (> FailAt), brings it back.
	RecoverAt float64
}

// Device is a training participant. It is not safe for concurrent use;
// the simulation engine serializes all calls.
type Device struct {
	Cfg    Config
	Model  *nn.Model
	Opt    *nn.SGD
	Loader *dataset.Loader
	// Schedule, when non-nil, sets the learning rate from the device's
	// version before every step. Schedules are pure functions of the
	// step index, so asynchronous devices at different versions stay
	// consistent without coordination.
	Schedule nn.LRSchedule

	rng *rand.Rand

	// lossGrad is the reused ∂L/∂logits buffer for TrainStep.
	lossGrad *tensor.Tensor

	// Version counts completed local steps since the start of training
	// (the paper's parameter version v_{i,j}).
	Version int
	// StepsSinceSync counts local steps since the last synchronization.
	StepsSinceSync int
	// ComputeTime accumulates virtual seconds spent computing.
	ComputeTime float64
	// drift scales effective power at runtime (1 = nominal), letting
	// ablations model thermal throttling or contention.
	drift float64
}

// New constructs a device with its own model replica, optimizer and data
// loader. The model should already hold the global initial parameters.
func New(cfg Config, model *nn.Model, opt *nn.SGD, loader *dataset.Loader, rng *rand.Rand) *Device {
	if cfg.Power <= 0 {
		panic(fmt.Sprintf("device: non-positive power %v", cfg.Power))
	}
	if cfg.BaseStepTime <= 0 {
		panic(fmt.Sprintf("device: non-positive base step time %v", cfg.BaseStepTime))
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(int64(cfg.ID) + 1))
	}
	return &Device{Cfg: cfg, Model: model, Opt: opt, Loader: loader, rng: rng, drift: 1}
}

// SetDrift scales the device's effective power by factor (e.g. 0.5 =
// half speed). Used by the predictor ablation.
func (d *Device) SetDrift(factor float64) {
	if factor <= 0 {
		panic(fmt.Sprintf("device: non-positive drift %v", factor))
	}
	d.drift = factor
}

// StepTime returns the virtual duration of the next mini-batch,
// including jitter and drift.
func (d *Device) StepTime() float64 {
	t := d.Cfg.BaseStepTime / (d.Cfg.Power * d.drift)
	if d.Cfg.Jitter > 0 {
		// Log-normal multiplicative jitter keeps durations positive.
		t *= jitterFactor(d.rng, d.Cfg.Jitter)
	}
	return t
}

func jitterFactor(rng *rand.Rand, sigma float64) float64 {
	return math.Exp(sigma * rng.NormFloat64())
}

// TrainStep performs one local SGD step (Alg. 1 lines 15–19) and returns
// the training loss and the virtual time the step took.
func (d *Device) TrainStep() (loss float64, elapsed float64) {
	loss = d.compute()
	return loss, d.charge()
}

// compute is the arithmetic half of a step: forward, backward and the
// optimizer update on the next mini-batch. It touches only the model,
// the optimizer, the loader and the version counters.
func (d *Device) compute() (loss float64) {
	if d.Schedule != nil {
		nn.ApplySchedule(d.Opt, d.Schedule, d.Version)
	}
	x, y := d.Loader.Next()
	logits := d.Model.Forward(x, true)
	d.lossGrad = tensor.Ensure(d.lossGrad, logits.Dim(0), logits.Dim(1))
	loss = nn.SoftmaxCrossEntropyInto(d.lossGrad, logits, y)
	d.Model.Backward(d.lossGrad)
	d.Opt.Step(d.Model)
	d.Version++
	d.StepsSinceSync++
	return loss
}

// charge is the virtual half of a step: one StepTime draw, added to
// ComputeTime. It touches only the device RNG and the clock fields, so
// the two halves of a run of steps may be taken apart (ChargeN,
// ComputeN) without moving a bit of either.
func (d *Device) charge() (elapsed float64) {
	elapsed = d.StepTime()
	d.ComputeTime += elapsed
	return elapsed
}

// Partial is one device's share of a training phase. Schemes combine
// partials after the join, in device order, so a curve never depends
// on how the devices were scheduled.
type Partial struct {
	Steps   int
	LossSum float64 // sum of the step losses
	Elapsed float64 // virtual seconds of compute
}

// MeanLoss is the mean step loss (0 for a phase canceled before its
// first step).
func (p Partial) MeanLoss() float64 {
	if p.Steps == 0 {
		return 0
	}
	return p.LossSum / float64(p.Steps)
}

// TrainN runs n local steps. A canceled ctx stops the loop within one
// step; the caller must then discard the truncated partial and surface
// ctx.Err() — the check never changes an uncancelled phase.
func (d *Device) TrainN(ctx context.Context, n int) (p Partial) {
	for p.Steps < n && ctx.Err() == nil {
		p.step(d)
	}
	return p
}

// step runs one local step on d and adds it to the partial.
func (p *Partial) step(d *Device) {
	l, e := d.TrainStep()
	p.Steps++
	p.LossSum += l
	p.Elapsed += e
}

// ChargeN draws the virtual duration of the next n steps ahead of their
// arithmetic, so an event-driven scheme knows when the steps end before
// it runs them. ComputeN(ctx, n) must follow before the device is used
// otherwise; together they are TrainN(ctx, n).
func (d *Device) ChargeN(n int) (elapsed float64) {
	for i := 0; i < n; i++ {
		elapsed += d.charge()
	}
	return elapsed
}

// ComputeN runs the arithmetic of the n steps ChargeN charged and
// returns their Steps and LossSum. It may run on another goroutine
// than ChargeN's as long as nothing else touches the device meanwhile.
// Cancellation behaves as in TrainN.
func (d *Device) ComputeN(ctx context.Context, n int) (p Partial) {
	for p.Steps < n && ctx.Err() == nil {
		p.LossSum += d.compute()
		p.Steps++
	}
	return p
}

// FillPeriod runs local steps until the next one would overrun period
// virtual seconds (Alg. 1 lines 13–19): at least one step, at most
// maxSteps. Cancellation behaves as in TrainN. StepTime draws from the
// device RNG under jitter, so the lookahead calls it exactly once
// after each step — the call pattern is part of the determinism
// contract.
func (d *Device) FillPeriod(ctx context.Context, period float64, maxSteps int) (p Partial) {
	for ctx.Err() == nil {
		p.step(d)
		if p.Elapsed+d.StepTime() > period || p.Steps >= maxSteps {
			break
		}
	}
	return p
}

// EpochTime returns the virtual duration of one full local epoch at
// nominal power (no jitter), the quantity the mutual-negotiation phase
// measures.
func (d *Device) EpochTime() float64 {
	return float64(d.Loader.BatchesPerEpoch()) * d.Cfg.BaseStepTime / d.Cfg.Power
}

// WarmupCtx runs the mutual-negotiation phase (paper §III-B): epochs
// of training at a reduced learning rate, returning the partial it ran;
// Elapsed is the measured total calculation time T_i. The learning-rate
// reduction stabilizes the model before full training. A canceled ctx
// stops the step loop within one device step; the caller must then
// discard the truncated partial and surface ctx.Err() — the checks
// never change an uncancelled warmup.
func (d *Device) WarmupCtx(ctx context.Context, epochs int, lrScale float64) Partial {
	if epochs <= 0 {
		panic(fmt.Sprintf("device: Warmup(%d)", epochs))
	}
	origLR := d.Opt.LR
	origSchedule := d.Schedule
	d.Schedule = nil // the warm-up rate overrides any schedule
	d.Opt.LR = origLR * lrScale
	// NewLoader clamps the batch to the shard, so an epoch is ≥ 1 step.
	p := d.TrainN(ctx, epochs*d.Loader.BatchesPerEpoch())
	d.Opt.LR = origLR
	d.Schedule = origSchedule
	return p
}

// Parameters exposes the local model's flat parameter vector.
func (d *Device) Parameters() []float64 { return d.Model.Parameters() }

// ParametersInto writes the local model's flat parameter vector into
// dst (length NumParams) and returns it — the allocation-free gather
// path the round loops use.
func (d *Device) ParametersInto(dst []float64) []float64 { return d.Model.ParametersInto(dst) }

// SetParameters installs a new parameter vector (after aggregation or
// broadcast) and resets optimizer momentum, which belongs to the old
// iterate.
func (d *Device) SetParameters(p []float64) {
	d.Model.SetParameters(p)
	d.Opt.Reset()
	d.StepsSinceSync = 0
}

// AliveAt reports whether the device is up at virtual time t according
// to its failure schedule.
func (d *Device) AliveAt(t float64) bool {
	if d.Cfg.FailAt <= 0 {
		return true
	}
	if t < d.Cfg.FailAt {
		return true
	}
	return d.Cfg.RecoverAt > d.Cfg.FailAt && t >= d.Cfg.RecoverAt
}
