package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"hadfl/internal/tensor"
)

// The zero-allocation guarantee: after warm-up, a steady-state training
// step (forward, loss, backward, optimizer update at a fixed batch
// shape) performs no heap allocations.
func testZeroAllocStep(t *testing.T, m *Model, x *tensor.Tensor, labels []int) {
	t.Helper()
	opt := NewSGD(0.05, 0.9, 1e-4)
	grad := tensor.New(x.Dim(0), 1) // resized to the logits shape below
	step := func() {
		logits := m.Forward(x, true)
		grad = tensor.Ensure(grad, logits.Dim(0), logits.Dim(1))
		loss := SoftmaxCrossEntropyInto(grad, logits, labels)
		_ = loss
		m.Backward(grad)
		opt.Step(m)
	}
	for i := 0; i < 3; i++ { // warm up layer buffers, optimizer state
		step()
	}
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Fatalf("steady-state training step allocates %.1f times per step, want 0", allocs)
	}
}

// The evaluation-side guarantee: a steady-state scoring step — forward
// in inference mode plus the fused per-sample loss + accuracy kernel
// at a fixed batch shape — performs no heap allocations.
func testZeroAllocEval(t *testing.T, m *Model, x *tensor.Tensor, labels []int) {
	t.Helper()
	perSample := make([]float64, x.Dim(0))
	evalStep := func() {
		logits := m.Forward(x, false)
		correct := SoftmaxCrossEntropyEvalInto(perSample, logits, labels)
		_ = correct
	}
	for i := 0; i < 3; i++ { // warm up layer buffers
		evalStep()
	}
	if allocs := testing.AllocsPerRun(10, evalStep); allocs != 0 {
		t.Fatalf("steady-state eval step allocates %.1f times per step, want 0", allocs)
	}
}

func TestTrainStepZeroAllocResMLP(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewResMLP(rng, 32, 32, 2, 10)
	x := tensor.RandNormal(rng, 0, 1, 64, 32)
	labels := make([]int, 64)
	for i := range labels {
		labels[i] = i % 10
	}
	testZeroAllocStep(t, m, x, labels)
}

func TestTrainStepZeroAllocVGGTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("convolutional zero-alloc check skipped in -short mode")
	}
	forConvBatches(t, 2, NewVGGTiny, testZeroAllocStep)
}

func TestTrainStepZeroAllocResNetTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("convolutional zero-alloc check skipped in -short mode")
	}
	forConvBatches(t, 3, NewResNetTiny, testZeroAllocStep)
}

func TestEvalStepZeroAllocResMLP(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewResMLP(rng, 32, 32, 2, 10)
	x := tensor.RandNormal(rng, 0, 1, 64, 32)
	labels := make([]int, 64)
	for i := range labels {
		labels[i] = i % 10
	}
	testZeroAllocEval(t, m, x, labels)
}

func TestEvalStepZeroAllocResNetTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("convolutional zero-alloc check skipped in -short mode")
	}
	forConvBatches(t, 5, NewResNetTiny, testZeroAllocEval)
}

// forConvBatches runs a zero-alloc check on a fresh 8×8 conv model at
// batch 16 and at batch 5, where Conv2D's last tile of images is
// partial.
func forConvBatches(t *testing.T, seed int64, arch func(rng *rand.Rand, inCh, size, classes int) *Model,
	check func(*testing.T, *Model, *tensor.Tensor, []int)) {
	for _, n := range []int{16, 5} {
		t.Run(fmt.Sprintf("batch%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			labels := make([]int, n)
			for i := range labels {
				labels[i] = i % 10
			}
			check(t, arch(rng, 3, 8, 10), tensor.RandNormal(rng, 0, 1, n, 3, 8, 8), labels)
		})
	}
}
