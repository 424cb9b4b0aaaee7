package eval

import (
	"math/rand"
	"testing"

	"hadfl/internal/dataset"
	"hadfl/internal/nn"
	"hadfl/internal/tensor"
)

// The eval trajectory: the engine path versus the legacy path it replaced
// (SetParameters + one forward for the loss + a second full forward
// inside Model.Accuracy, with fresh loss-gradient and prediction
// allocations per call). Compare evals/sec and allocs/op between the
// two to read the before/after:
//
//	go test -run '^$' -bench BenchmarkEvaluate -benchmem ./internal/eval

const (
	benchSamples  = 1000
	benchFeatures = 16
	benchClasses  = 5
)

func benchData() *dataset.Dataset {
	return dataset.Synthetic(dataset.SyntheticConfig{
		Samples: benchSamples, Features: benchFeatures, Classes: benchClasses,
		ModesPerClass: 2, NoiseStd: 0.4, Seed: 17,
	})
}

func benchModel() *nn.Model {
	return nn.NewResMLP(rand.New(rand.NewSource(9)), benchFeatures, 64, 2, benchClasses)
}

func benchmarkEngine(b *testing.B, parallelism int) {
	prev := tensor.Parallelism()
	tensor.SetParallelism(parallelism)
	defer tensor.SetParallelism(prev)

	data := benchData()
	e, err := New(Config{Data: data, Model: benchModel(), NewReplica: benchModel, BatchSize: 256})
	if err != nil {
		b.Fatal(err)
	}
	params := benchModel().Parameters()
	var res Result
	e.EvaluateInto(&res, params) // warm buffers and replicas
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EvaluateInto(&res, params)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "evals/sec")
}

func BenchmarkEvaluateEngine(b *testing.B)         { benchmarkEngine(b, 1) }
func BenchmarkEvaluateEngineParallel(b *testing.B) { benchmarkEngine(b, 4) }

// BenchmarkEvaluateLegacyDoubleForward reproduces the pre-engine
// evaluation path for the before/after record: the whole test set as
// one giant batch, a gradient-allocating loss pass, then a second full
// forward for accuracy.
func BenchmarkEvaluateLegacyDoubleForward(b *testing.B) {
	data := benchData()
	m := benchModel()
	params := benchModel().Parameters()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SetParameters(params)
		logits := m.Forward(data.X, false)
		loss, _ := nn.SoftmaxCrossEntropy(logits, data.Y)
		acc := m.Accuracy(data.X, data.Y)
		_, _ = loss, acc
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "evals/sec")
}
