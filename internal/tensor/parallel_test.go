package tensor

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

func bitsEqual(a, b *Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, v := range a.Data() {
		if math.Float64bits(v) != math.Float64bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

// The reductions sum fixed vecGrain chunks and then the per-chunk
// partials in chunk order; the golden fixtures and the evaluator's loss
// bits pin that order. The reference below spells it out, and the data
// is checked to tell it apart from one running sum over the whole
// vector, so collapsing the chunks fails here.
func TestVecReduceSumsFixedChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 3*vecGrain + 517 // several chunks plus a ragged tail
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	for _, tc := range []struct {
		name string
		got  float64
		term func(i int) float64
	}{
		{"VecSum", VecSum(x), func(i int) float64 { return x[i] }},
		{"VecDot", VecDot(x, y), func(i int) float64 { return x[i] * y[i] }},
		{"VecSquaredDistance", VecSquaredDistance(x, y), func(i int) float64 { d := x[i] - y[i]; return d * d }},
	} {
		chunked, flat := 0.0, 0.0
		for lo := 0; lo < n; lo += vecGrain {
			part := 0.0
			for i := lo; i < min(lo+vecGrain, n); i++ {
				part += tc.term(i)
				flat += tc.term(i)
			}
			chunked += part
		}
		if math.Float64bits(chunked) == math.Float64bits(flat) {
			t.Fatalf("%s: the data cannot tell chunked from flat summation", tc.name)
		}
		if math.Float64bits(tc.got) != math.Float64bits(chunked) {
			t.Errorf("%s = %v, per-chunk reference %v (flat sum %v)", tc.name, tc.got, chunked, flat)
		}
	}
}

func TestIm2ColIntoMatchesAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := RandNormal(rng, 0, 1, 3, 2, 7, 7)
	want := Im2Col(x, 3, 3, 2, 1)
	got := New(want.Shape()...)
	got.Fill(42) // stale garbage must be fully overwritten
	Im2ColInto(got, x, 3, 3, 2, 1)
	if !bitsEqual(want, got) {
		t.Fatal("Im2ColInto differs from Im2Col")
	}
	img := New(3, 2, 7, 7)
	img.Fill(-1)
	Col2ImInto(img, got, 3, 3, 2, 1)
	if !bitsEqual(img, Col2Im(got, 3, 2, 7, 7, 3, 3, 2, 1)) {
		t.Fatal("Col2ImInto differs from Col2Im")
	}
}

func TestFusedBiasMatchesSeparate(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := RandNormal(rng, 0, 1, 5, 9)
	b := RandNormal(rng, 0, 1, 4, 9)
	bias := RandNormal(rng, 0, 1, 4)
	want := MatMulTransB(a, b)
	AddRowVector(want, bias)
	got := New(5, 4)
	MatMulTransBBiasInto(got, a, b, bias)
	if !want.Equal(got, 0) {
		t.Fatal("fused bias epilogue differs from matmul+AddRowVector")
	}
}

func TestMatMulAccVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := RandNormal(rng, 0, 1, 6, 4) // k=6, m=4
	b := RandNormal(rng, 0, 1, 6, 5) // k=6, n=5
	base := MatMulTransA(a, b)
	acc := base.Clone()
	MatMulTransAAccInto(acc, a, b)
	want := base.Scale(2)
	if !acc.Equal(want, 1e-12) {
		t.Fatal("MatMulTransAAccInto must accumulate, not overwrite")
	}
	sums := New(5)
	SumRowsAccInto(sums, base)
	SumRowsAccInto(sums, base)
	if !sums.Equal(SumRows(base).Scale(2), 1e-12) {
		t.Fatal("SumRowsAccInto must accumulate")
	}
}

func TestEnsure(t *testing.T) {
	b := Ensure(nil, 3, 4)
	if b.Dim(0) != 3 || b.Dim(1) != 4 {
		t.Fatalf("Ensure(nil) shape %v", b.Shape())
	}
	same := Ensure(b, 3, 4)
	if same != b {
		t.Fatal("Ensure must return the same tensor for an identical shape")
	}
	resh := Ensure(b, 4, 3)
	if &resh.Data()[0] != &b.Data()[0] {
		t.Fatal("Ensure must reuse backing storage for equal element counts")
	}
	grown := Ensure(b, 5, 5)
	if grown.Len() != 25 {
		t.Fatalf("Ensure grew to %d elems, want 25", grown.Len())
	}
}

func TestSetParallelismClamps(t *testing.T) {
	prev := Parallelism()
	defer SetParallelism(prev)
	SetParallelism(-3)
	if Parallelism() != 1 {
		t.Fatalf("Parallelism() = %d after SetParallelism(-3), want 1", Parallelism())
	}
	SetParallelism(6)
	if Parallelism() != 6 {
		t.Fatalf("Parallelism() = %d, want 6", Parallelism())
	}
}

// Concurrently runs every worker exactly once and returns after all of
// them.
func TestConcurrentlyRunsEveryWorker(t *testing.T) {
	for _, n := range []int{0, 1, 3} {
		var ran [3]atomic.Int32
		Concurrently(n, func(w int) { ran[w].Add(1) })
		for w := range ran {
			want := int32(0)
			if w < max(n, 1) {
				want = 1
			}
			if got := ran[w].Load(); got != want {
				t.Fatalf("n=%d: worker %d ran %d times, want %d", n, w, got, want)
			}
		}
	}
}
