// Package baselines implements the comparison schemes of the paper's
// evaluation:
//
//   - Distributed training [12]: PyTorch-DDP/Horovod-style synchronous
//     data parallelism — every iteration all K devices compute one
//     mini-batch gradient, ring-all-reduce the gradients, and apply the
//     identical averaged update. Slow devices gate every iteration.
//   - Decentralized-FedAvg [11]: every device runs E local steps, then
//     all devices synchronously gossip-average their models (a full ring
//     all-reduce over K). Slow devices gate every round.
//   - Async-FL [6][7] (asyncfl.go): centralized asynchronous FL with
//     staleness-weighted aggregation — no barrier, but the server stays
//     in the data path.
//
// All run on the same Cluster and the same core.Loop as HADFL — one
// virtual clock, one byte accounting, one evaluation cadence, one
// cancellation and determinism contract — so curves are directly
// comparable; each runner below is only its scheme's policy.
package baselines

import (
	"context"
	"fmt"

	"hadfl/internal/aggregate"
	"hadfl/internal/core"
	"hadfl/internal/device"
	"hadfl/internal/nn"
	"hadfl/internal/p2p"
	"hadfl/internal/tensor"
)

// DistributedConfig tunes the synchronous distributed-training baseline.
// The shared run knobs (TargetEpochs, Seed, Parallelism, OnRound) live
// in the embedded core.RunConfig; LocalSteps is ignored (every
// iteration is exactly one step per device).
type DistributedConfig struct {
	core.RunConfig
	Link     p2p.Link
	MaxIters int
	// EvalEvery evaluates the model every this many iterations;
	// OnRound receives each evaluation point (Round = iterations so
	// far).
	EvalEvery int
}

// DefaultDistributedConfig mirrors core.DefaultConfig's budget.
func DefaultDistributedConfig() DistributedConfig {
	return DistributedConfig{
		RunConfig: core.RunConfig{TargetEpochs: 60, Seed: 1},
		Link:      p2p.Link{Latency: 0.005, Bandwidth: 1e9},
		MaxIters:  1 << 20,
		EvalEvery: 20,
	}
}

// RunDistributed executes synchronous data-parallel SGD on the cluster:
// every iteration each device computes one gradient, the gradients are
// ring-all-reduced, and every replica applies the same averaged update.
func RunDistributed(ctx context.Context, c *core.Cluster, cfg DistributedConfig) (*core.Result, error) {
	if cfg.EvalEvery <= 0 {
		return nil, fmt.Errorf("baselines: EvalEvery %d", cfg.EvalEvery)
	}
	l := core.NewLoop(ctx, c, "distributed", cfg.RunConfig, cfg.Link)
	l.Start()

	// Per-device gradient gather buffers and the averaged-update buffer
	// are allocated once and reused every iteration.
	k := len(c.Devices)
	grads := make([][]float64, k)
	for i := range grads {
		grads[i] = make([]float64, len(c.InitParams))
	}
	avg := make([]float64, len(c.InitParams))
	lossGrads := make([]*tensor.Tensor, k) // reused ∂L/∂logits buffers
	gradOne := func(d *device.Device) (p device.Partial) {
		if ctx.Err() != nil {
			return p // canceled: Train abandons the partials
		}
		i := d.Cfg.ID
		x, y := d.Loader.Next()
		d.Model.ZeroGrads()
		logits := d.Model.Forward(x, true)
		lossGrads[i] = tensor.Ensure(lossGrads[i], logits.Dim(0), logits.Dim(1))
		p.LossSum = nn.SoftmaxCrossEntropyInto(lossGrads[i], logits, y)
		d.Model.Backward(lossGrads[i])
		d.Model.GradientVectorInto(grads[i])
		p.Steps, p.Elapsed = 1, d.StepTime()
		return p
	}
	for l.Next(cfg.MaxIters) {
		parts, ok := l.Train(l.All, gradOne)
		if !ok {
			break
		}
		loss, slowest := barrier(parts)
		// Ring all-reduce of gradients across all K devices; the barrier
		// and the ring are one charge to the clock (pinned float order).
		aggregate.MeanInto(avg, grads)
		l.Now += slowest + l.ChargeRing(l.All)
		// Identical update on every replica keeps them bit-equal; apply
		// through each device's optimizer (same hyper-parameters).
		for _, d := range c.Devices {
			d.Model.SetGradientVector(avg)
			d.Opt.Step(d.Model)
			d.Version++
		}
		l.Comm.Rounds++
		l.Rounds++
		if l.Rounds%cfg.EvalEvery == 0 {
			c.Devices[0].ParametersInto(l.Global)
			l.Record(loss, core.RoundInfo{})
		}
	}
	c.Devices[0].ParametersInto(l.Global)
	l.RecordFinal()
	return l.Result()
}

// barrier is the synchronous schemes' join: the mean of the devices'
// mean losses, and the slowest device's compute time, which gates
// everyone.
func barrier(parts []device.Partial) (loss, slowest float64) {
	for _, p := range parts {
		loss += p.MeanLoss()
		slowest = max(slowest, p.Elapsed)
	}
	return loss / float64(len(parts)), slowest
}

// FedAvgConfig tunes the Decentralized-FedAvg baseline. The shared run
// knobs live in the embedded core.RunConfig; LocalSteps there is the
// per-round E, identical on every device (the homogeneity assumption
// HADFL removes), defaulting to 20.
type FedAvgConfig struct {
	core.RunConfig
	Link      p2p.Link
	MaxRounds int
}

// DefaultFedAvgConfig uses E=20 local steps per round.
func DefaultFedAvgConfig() FedAvgConfig {
	return FedAvgConfig{
		RunConfig: core.RunConfig{TargetEpochs: 60, Seed: 1, LocalSteps: 20},
		Link:      p2p.Link{Latency: 0.005, Bandwidth: 1e9},
		MaxRounds: 1 << 20,
	}
}

// RunFedAvg executes Decentralized-FedAvg: E local steps everywhere,
// then a synchronous full-population gossip average (a ring all-reduce
// over K) that waits for the slowest device.
func RunFedAvg(ctx context.Context, c *core.Cluster, cfg FedAvgConfig) (*core.Result, error) {
	if cfg.LocalSteps <= 0 {
		return nil, fmt.Errorf("baselines: LocalSteps %d", cfg.LocalSteps)
	}
	l := core.NewLoop(ctx, c, "decentralized-fedavg", cfg.RunConfig, cfg.Link)
	l.Start()
	trainE := func(d *device.Device) device.Partial { return d.TrainN(ctx, cfg.LocalSteps) }
	for l.Next(cfg.MaxRounds) {
		parts, ok := l.Train(l.All, trainE)
		if !ok {
			break
		}
		loss, slowest := barrier(parts)
		// Barrier and ring are one charge to the clock (pinned float
		// order); a full ring has nobody left to broadcast to.
		l.Now += slowest + l.AllReduce(l.All)
		l.Spread(nil, l.All, nil, 1)
		l.Comm.Rounds++
		l.Rounds++
		l.Record(loss, core.RoundInfo{})
	}
	return l.Result()
}
