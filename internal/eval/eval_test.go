package eval

import (
	"math"
	"math/rand"
	"testing"

	"hadfl/internal/dataset"
	"hadfl/internal/nn"
	"hadfl/internal/tensor"
)

const (
	testFeatures = 16
	testClasses  = 5
)

func testData(t *testing.T, samples int) *dataset.Dataset {
	t.Helper()
	full := dataset.Synthetic(dataset.SyntheticConfig{
		Samples: samples, Features: testFeatures, Classes: testClasses,
		ModesPerClass: 2, NoiseStd: 0.4, Seed: 11,
	})
	return full
}

func testModel() *nn.Model {
	return nn.NewResMLP(rand.New(rand.NewSource(3)), testFeatures, 24, 1, testClasses)
}

func testEvaluator(t *testing.T, data *dataset.Dataset, batch int) *Evaluator {
	t.Helper()
	e, err := New(Config{Data: data, Model: testModel(), NewReplica: testModel, BatchSize: batch})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func testParams() []float64 {
	return testModel().Parameters()
}

// The engine must agree with the naive whole-set reference: one giant
// forward, mean cross-entropy, argmax accuracy.
func TestEvaluateMatchesReference(t *testing.T) {
	data := testData(t, 150)
	params := testParams()

	ref := testModel()
	ref.SetParameters(params)
	logits := ref.Forward(data.X, false)
	refLoss, _ := nn.SoftmaxCrossEntropy(logits, data.Y)
	refAcc := nn.AccuracyFromLogits(logits, data.Y)

	e := testEvaluator(t, data, 32) // 4 full batches + remainder of 22
	var res Result
	e.EvaluateInto(&res, params)
	if math.Float64bits(res.Accuracy) != math.Float64bits(refAcc) {
		t.Fatalf("accuracy %v, reference %v", res.Accuracy, refAcc)
	}
	if math.Abs(res.Loss-refLoss) > 1e-12*math.Max(1, math.Abs(refLoss)) {
		t.Fatalf("loss %v, reference %v", res.Loss, refLoss)
	}
	if res.Samples != 150 || res.Batches != 5 {
		t.Fatalf("res = %+v, want 150 samples in 5 batches", res)
	}
}

// Bit-determinism across batch sizes: every kernel under Forward
// computes output rows independently, so how the test set is batched
// must not change a single bit of loss or accuracy.
func TestEvaluateDeterministicAcrossBatchSizes(t *testing.T) {
	data := testData(t, 130)
	params := testParams()
	var wantLoss, wantAcc uint64
	for i, batch := range []int{7, 32, 64, 130, 999} {
		e := testEvaluator(t, data, batch)
		loss, acc := e.Evaluate(params)
		if i == 0 {
			wantLoss, wantAcc = math.Float64bits(loss), math.Float64bits(acc)
			continue
		}
		if math.Float64bits(loss) != wantLoss || math.Float64bits(acc) != wantAcc {
			t.Fatalf("batch %d: (%v, %v) differs from batch 7's bits", batch, loss, acc)
		}
	}
}

// Bit-determinism across parallelism levels: spreading batches over
// scoring replicas is a throughput knob, never a numerics knob.
func TestEvaluateDeterministicAcrossParallelism(t *testing.T) {
	prev := tensor.Parallelism()
	defer tensor.SetParallelism(prev)

	data := testData(t, 200)
	params := testParams()
	e := testEvaluator(t, data, 16)
	var wantLoss, wantAcc uint64
	for i, p := range []int{1, 2, 8} {
		tensor.SetParallelism(p)
		loss, acc := e.Evaluate(params)
		if i == 0 {
			wantLoss, wantAcc = math.Float64bits(loss), math.Float64bits(acc)
			continue
		}
		if math.Float64bits(loss) != wantLoss || math.Float64bits(acc) != wantAcc {
			t.Fatalf("parallelism %d: (%v, %v) differs from serial bits", p, loss, acc)
		}
	}
}

// A wide model scored on four replicas side by side gives the serial
// bits: the replicas share nothing but the dataset and the disjoint
// slices of the loss buffer they write.
func TestEvaluateParallelWithParallelKernels(t *testing.T) {
	prev := tensor.Parallelism()
	defer tensor.SetParallelism(prev)

	data := testData(t, 256)
	wide := func() *nn.Model {
		return nn.NewResMLP(rand.New(rand.NewSource(5)), testFeatures, 128, 2, testClasses)
	}
	e, err := New(Config{Data: data, Model: wide(), NewReplica: wide, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	params := wide().Parameters()
	tensor.SetParallelism(1)
	wantLoss, wantAcc := e.Evaluate(params)
	tensor.SetParallelism(4)
	loss, acc := e.Evaluate(params)
	if math.Float64bits(loss) != math.Float64bits(wantLoss) ||
		math.Float64bits(acc) != math.Float64bits(wantAcc) {
		t.Fatalf("four replicas: (%v, %v), serial (%v, %v)", loss, acc, wantLoss, wantAcc)
	}
}

// With fewer full batches than Parallelism() the engine cuts the set
// into one span per replica instead of scoring a lone batch on one
// replica, and still gives the serial bits and the batch count.
func TestEvaluateSplitsFewBatchesOverReplicas(t *testing.T) {
	prev := tensor.Parallelism()
	defer tensor.SetParallelism(prev)

	data := testData(t, 130)
	params := testParams()
	e := testEvaluator(t, data, 100) // 1 full batch + remainder of 30
	tensor.SetParallelism(1)
	wantLoss, wantAcc := e.Evaluate(params)
	for _, tc := range []struct{ p, span int }{{2, 65}, {3, 44}, {4, 33}, {8, 17}} {
		tensor.SetParallelism(tc.p)
		var res Result
		e.EvaluateInto(&res, params)
		if e.span != tc.span || e.workers != tc.p {
			t.Errorf("parallelism %d: %d workers over spans of %d, want %d over %d", tc.p, e.workers, e.span, tc.p, tc.span)
		}
		if math.Float64bits(res.Loss) != math.Float64bits(wantLoss) ||
			math.Float64bits(res.Accuracy) != math.Float64bits(wantAcc) {
			t.Fatalf("parallelism %d: (%v, %v), serial (%v, %v)", tc.p, res.Loss, res.Accuracy, wantLoss, wantAcc)
		}
		if res.Batches != 2 {
			t.Errorf("parallelism %d: %d batches, want 2 of BatchSize", tc.p, res.Batches)
		}
	}
}

// Steady-state evaluations on one replica allocate nothing, including
// when the dataset size is not a multiple of the batch size (the
// remainder batch runs on its own replica).
func TestEvaluateZeroAllocSteadyState(t *testing.T) {
	prev := tensor.Parallelism()
	tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)

	data := testData(t, 100)
	params := testParams()
	e := testEvaluator(t, data, 32) // 3 full batches + remainder of 4
	var res Result
	for i := 0; i < 3; i++ { // warm up replica and layer buffers
		e.EvaluateInto(&res, params)
	}
	if allocs := testing.AllocsPerRun(10, func() { e.EvaluateInto(&res, params) }); allocs != 0 {
		t.Fatalf("steady-state evaluation allocates %.1f times per call, want 0", allocs)
	}
}

// Stats accumulate across evaluations.
func TestEvaluatorStats(t *testing.T) {
	data := testData(t, 96)
	e := testEvaluator(t, data, 32) // exactly 3 batches
	params := testParams()
	e.Evaluate(params)
	e.Evaluate(params)
	st := e.Stats()
	if st.Evals != 2 || st.Batches != 6 {
		t.Fatalf("stats %+v, want 2 evals / 6 batches", st)
	}
	if st.Seconds < 0 {
		t.Fatalf("negative seconds %v", st.Seconds)
	}
}

// Config validation: empty data and missing model are rejected.
func TestNewValidates(t *testing.T) {
	if _, err := New(Config{Model: testModel()}); err == nil {
		t.Fatal("New accepted nil dataset")
	}
	if _, err := New(Config{Data: testData(t, 10)}); err == nil {
		t.Fatal("New accepted nil model")
	}
}
