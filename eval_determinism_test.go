package hadfl

import (
	"math"
	"math/rand"
	"testing"

	"hadfl/internal/core"
	"hadfl/internal/dataset"
	"hadfl/internal/nn"
	"hadfl/internal/tensor"
)

// The evaluation-engine determinism contract, the inference-side
// companion of TestParallelDeterminism: cluster evaluation must return
// the same loss and accuracy bits at every tensor parallelism level
// (the scoring-replica cap) and at every scoring batch size (per-sample
// losses land by dataset position and reduce in fixed chunks).
// Parallelism and EvalBatchSize are throughput knobs, never numerics
// knobs.
//
// The convolutional models score trained parameters, so batch norm
// normalizes with running statistics that are not the defaults. Their
// 400-sample test split is scored in one full batch with and without a
// remainder (256, 400), in several (16, 64) and in a batch size that
// divides nothing (7); the batch size is clamped to the set, so no
// split has zero full batches.
func TestEvalDeterminismAcrossParallelismAndBatchSizes(t *testing.T) {
	prev := tensor.Parallelism()
	defer tensor.SetParallelism(prev)

	vectors := dataset.Synthetic(dataset.SyntheticConfig{
		Samples: 1300, Features: 16, Classes: 5, ModesPerClass: 2, NoiseStd: 0.4, Seed: 42,
	})
	images := dataset.Images(dataset.DefaultImages())
	for _, tc := range []struct {
		name    string
		data    *dataset.Dataset
		trainN  int
		arch    nn.Arch
		batches []int
	}{
		{"resmlp", vectors, 1000, func(rng *rand.Rand) *nn.Model {
			return nn.NewResMLP(rng, 16, 24, 1, 5)
		}, []int{16, 64, 0 /* default */, 300 /* whole set */}},
		{"resnettiny", images, 1600, func(rng *rand.Rand) *nn.Model {
			return nn.NewResNetTiny(rng, 3, 8, 10)
		}, []int{7, 16, 64, 0 /* default: 256 */, 400 /* whole set */}},
		{"vggtiny", images, 1600, func(rng *rand.Rand) *nn.Model {
			return nn.NewVGGTiny(rng, 3, 8, 10)
		}, []int{7, 16, 64, 0 /* default: 256 */, 400 /* whole set */}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			train, test := tc.data.Split(tc.trainN)
			build := func(evalBatch int) *core.Cluster {
				c, err := core.BuildCluster(core.ClusterSpec{
					Powers:       []float64{4, 2, 2, 1},
					BaseStepTime: 1,
					Arch:         tc.arch,
					Train:        train, Test: test,
					BatchSize: 20, LR: 0.1, Momentum: 0.9,
					Seed:          42,
					EvalBatchSize: evalBatch,
				})
				if err != nil {
					t.Fatal(err)
				}
				return c
			}

			tensor.SetParallelism(1)
			trained := build(0).Devices[0]
			for i := 0; i < 3; i++ {
				trained.TrainStep()
			}
			params := trained.Parameters()

			var wantLoss, wantAcc uint64
			first := true
			for _, batch := range tc.batches {
				for _, par := range []int{1, 2, 8} {
					tensor.SetParallelism(par)
					c := build(batch)
					loss, acc := c.Evaluate(params)
					tensor.SetParallelism(1)
					if first {
						wantLoss, wantAcc = math.Float64bits(loss), math.Float64bits(acc)
						first = false
						continue
					}
					if math.Float64bits(loss) != wantLoss || math.Float64bits(acc) != wantAcc {
						t.Fatalf("batch %d, parallelism %d: (%v, %v) differs from reference bits",
							batch, par, loss, acc)
					}
				}
			}
		})
	}
}
