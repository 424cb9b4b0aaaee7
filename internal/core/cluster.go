// Package core implements the HADFL training runtime (paper Alg. 1 and
// the §III-A workflow) over the simulated substrate: heterogeneous
// devices train asynchronously with per-device local steps; every
// Tsync×HE virtual seconds the coordinator's plan selects Np devices by
// the Eq. 8 probability; the selected ring performs a gossip all-reduce;
// the aggregate is broadcast to the rest.
//
// Virtual time is accumulated analytically (compute from the device cost
// model, communication from the p2p.CommModel α–β formulas), mirroring
// how the paper injects sleep() — see DESIGN.md. The message-level
// protocol (including fault-tolerant bypass) additionally runs for real
// in internal/p2p and the live cmd/ deployment path.
package core

import (
	"fmt"
	"math/rand"

	"hadfl/internal/dataset"
	"hadfl/internal/device"
	"hadfl/internal/eval"
	"hadfl/internal/nn"
)

// ClusterSpec describes a simulated heterogeneous federation: the
// paper's "computing power ratio" array plus the model/data/optimizer
// every device uses.
type ClusterSpec struct {
	// Powers is the computing-power ratio array, e.g. [4,2,2,1]; its
	// length is the device count K.
	Powers []float64
	// BaseStepTime is virtual seconds per mini-batch at power 1.
	BaseStepTime float64
	// Jitter is per-step log-normal noise (0 = deterministic).
	Jitter float64
	// Arch builds the model; all devices share one initialization.
	Arch nn.Arch
	// Train/Test data. Train is partitioned across devices.
	Train, Test *dataset.Dataset
	// NonIIDAlpha, if > 0, uses a Dirichlet(alpha) split; otherwise IID.
	NonIIDAlpha float64
	// BatchSize per device.
	BatchSize int
	// Optimizer hyper-parameters.
	LR, Momentum, WeightDecay float64
	// LRSchedule optionally drives the learning rate from each device's
	// local step count (overriding LR after warm-up).
	LRSchedule nn.LRSchedule
	// FailAt maps device id → virtual failure time (0 = never).
	FailAt map[int]float64
	// Seed drives all randomness (init, partition, jitter).
	Seed int64
	// EvalBatchSize is the evaluation engine's fixed scoring batch
	// size (0 = eval.DefaultBatchSize). A throughput/memory knob only:
	// the engine's results are bit-identical at every batch size.
	EvalBatchSize int
}

// Cluster is a ready-to-train federation.
type Cluster struct {
	Devices   []*device.Device
	Test      *dataset.Dataset
	BatchSize int
	// TrainSamples is the total training-set size across devices, used
	// to convert processed samples into epochs.
	TrainSamples int
	// InitParams is the shared initial parameter vector.
	InitParams []float64

	// evaluator is the cluster-owned batched evaluation engine every
	// runner scores aggregates through.
	evaluator *eval.Evaluator
}

// BuildCluster constructs the federation: one model replica, optimizer
// and data shard per device, all replicas starting from identical
// parameters (workflow step 2: initial model dispatch).
func BuildCluster(spec ClusterSpec) (*Cluster, error) {
	k := len(spec.Powers)
	if k == 0 {
		return nil, fmt.Errorf("core: empty Powers")
	}
	if spec.Arch == nil || spec.Train == nil || spec.Test == nil {
		return nil, fmt.Errorf("core: Arch, Train and Test are required")
	}
	if spec.BatchSize <= 0 {
		return nil, fmt.Errorf("core: BatchSize %d", spec.BatchSize)
	}
	if spec.BaseStepTime <= 0 {
		return nil, fmt.Errorf("core: BaseStepTime %v", spec.BaseStepTime)
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	ref := spec.Arch(rand.New(rand.NewSource(spec.Seed + 1000)))
	init := ref.Parameters()

	var parts []*dataset.Dataset
	if spec.NonIIDAlpha > 0 {
		parts = dataset.PartitionDirichlet(spec.Train, k, spec.NonIIDAlpha, rng)
	} else {
		parts = dataset.PartitionIID(spec.Train, k, rng)
	}

	ev, err := eval.New(eval.Config{
		Data:  spec.Test,
		Model: ref,
		NewReplica: func() *nn.Model {
			// Replica weights are overwritten by SetParameters before
			// every use, so the init seed is irrelevant.
			return spec.Arch(rand.New(rand.NewSource(spec.Seed + 1000)))
		},
		BatchSize: spec.EvalBatchSize,
	})
	if err != nil {
		return nil, err
	}

	c := &Cluster{
		Test:         spec.Test,
		BatchSize:    spec.BatchSize,
		TrainSamples: spec.Train.Len(),
		InitParams:   append([]float64(nil), init...),
		evaluator:    ev,
	}
	for i, p := range spec.Powers {
		if p <= 0 {
			return nil, fmt.Errorf("core: power[%d] = %v", i, p)
		}
		m := spec.Arch(rand.New(rand.NewSource(spec.Seed + 2000 + int64(i))))
		m.SetParameters(init)
		opt := nn.NewSGD(spec.LR, spec.Momentum, spec.WeightDecay)
		loader := dataset.NewLoader(parts[i], spec.BatchSize, rand.New(rand.NewSource(spec.Seed+3000+int64(i))))
		cfg := device.Config{
			ID:           i,
			Power:        p,
			BaseStepTime: spec.BaseStepTime,
			Jitter:       spec.Jitter,
			FailAt:       spec.FailAt[i],
		}
		d := device.New(cfg, m, opt, loader, rand.New(rand.NewSource(spec.Seed+4000+int64(i))))
		d.Schedule = spec.LRSchedule
		c.Devices = append(c.Devices, d)
	}
	return c, nil
}

// Evaluate scores params against the test set through the
// cluster-owned evaluation engine: fixed-size batches, a single
// forward pass per batch producing loss and accuracy together, and
// bit-identical results at every parallelism level and batch size.
func (c *Cluster) Evaluate(params []float64) (loss, acc float64) {
	return c.evaluator.Evaluate(params)
}

// Evaluator exposes the cluster-owned evaluation engine (for direct
// EvaluateInto use or engine-level tests). Evaluations must be
// serialized; the runners evaluate between rounds, which does.
func (c *Cluster) Evaluator() *eval.Evaluator { return c.evaluator }

// EvalStats returns the engine's cumulative telemetry for this
// cluster's runs (batches scored, wall-clock seconds), which the serve
// layer exports as eval_batches_total / eval_seconds_total.
func (c *Cluster) EvalStats() eval.Stats { return c.evaluator.Stats() }

// EpochsProcessed converts a total step count (across devices) into
// dataset epochs: steps × batch / train-set size.
func (c *Cluster) EpochsProcessed(totalSteps int) float64 {
	return float64(totalSteps*c.BatchSize) / float64(c.TrainSamples)
}

// AliveAt returns the ids of devices alive at virtual time t.
func (c *Cluster) AliveAt(t float64) []int {
	var out []int
	for _, d := range c.Devices {
		if d.AliveAt(t) {
			out = append(out, d.Cfg.ID)
		}
	}
	return out
}

// Device returns the device with the given id. BuildCluster assigns
// ids 0..K−1 in slice order, so this is an index, not a search; an id
// outside the cluster is a scheme bug and panics.
func (c *Cluster) Device(id int) *device.Device {
	if id < 0 || id >= len(c.Devices) {
		panic(fmt.Sprintf("core: no device %d", id))
	}
	return c.Devices[id]
}

// CommStats accounts communication volume per party, the basis of the
// paper's 2·K·M claim and the central-server pressure comparison.
type CommStats struct {
	DeviceBytes map[int]int64 // bytes sent by each device
	ServerBytes int64         // bytes sent by the central server (0 for HADFL)
	Rounds      int
}

// NewCommStats returns empty accounting.
func NewCommStats() *CommStats {
	return &CommStats{DeviceBytes: make(map[int]int64)}
}

// TotalDeviceBytes sums all device traffic.
func (s *CommStats) TotalDeviceBytes() int64 {
	var t int64
	//lint:ignore detmap integer sum is order-independent; no bytes derive from visit order
	for _, b := range s.DeviceBytes {
		t += b
	}
	return t
}
