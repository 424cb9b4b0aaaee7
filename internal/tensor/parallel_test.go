package tensor

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// withParallelism runs fn at the given kernel parallelism, restoring
// the previous setting afterwards.
func withParallelism(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := Parallelism()
	SetParallelism(n)
	defer SetParallelism(prev)
	fn()
}

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

// Kernels must be bit-identical at every parallelism level: sharding
// partitions independent rows and all reductions keep a fixed order.
func TestKernelsBitDeterministicAcrossParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Odd sizes large enough to cross the serial threshold and split
	// into several row chunks.
	a := RandNormal(rng, 0, 1, 67, 129)
	b := RandNormal(rng, 0, 1, 129, 83)
	bt := Transpose(b) // 83×129, for TransB
	at := Transpose(a) // 129×67, for TransA
	bias := RandNormal(rng, 0, 1, 83)

	type result struct{ mm, ta, tb, tbb, sr *Tensor }
	compute := func() result {
		var r result
		r.mm = New(67, 83)
		MatMulInto(r.mm, a, b)
		r.ta = New(67, 83)
		MatMulTransAInto(r.ta, at, b)
		r.tb = New(67, 83)
		MatMulTransBInto(r.tb, a, bt)
		r.tbb = New(67, 83)
		MatMulTransBBiasInto(r.tbb, a, bt, bias)
		r.sr = New(129)
		SumRowsInto(r.sr, a.Reshape(67, 129))
		return r
	}
	var serial result
	withParallelism(t, 1, func() { serial = compute() })
	for _, p := range []int{2, 3, 8} {
		var par result
		withParallelism(t, p, func() { par = compute() })
		if !bitsEqual(serial.mm, par.mm) {
			t.Fatalf("MatMulInto differs at parallelism %d", p)
		}
		if !bitsEqual(serial.ta, par.ta) {
			t.Fatalf("MatMulTransAInto differs at parallelism %d", p)
		}
		if !bitsEqual(serial.tb, par.tb) {
			t.Fatalf("MatMulTransBInto differs at parallelism %d", p)
		}
		if !bitsEqual(serial.tbb, par.tbb) {
			t.Fatalf("MatMulTransBBiasInto differs at parallelism %d", p)
		}
		if !bitsEqual(serial.sr, par.sr) {
			t.Fatalf("SumRowsInto differs at parallelism %d", p)
		}
	}
}

func TestVecOpsBitDeterministicAcrossParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 3*vecGrain + 517 // several chunks plus a ragged tail
	mk := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	x, y, z := mk(), mk(), mk()
	vecs := [][]float64{x, y, z}
	weights := []float64{0.2, 0.5, 0.3}

	type result struct {
		mean, wsum, lerp []float64
		dot, dist        float64
	}
	compute := func() result {
		var r result
		r.mean = make([]float64, n)
		VecMeanInto(r.mean, vecs)
		r.wsum = make([]float64, n)
		VecWeightedSumInto(r.wsum, vecs, weights)
		r.lerp = make([]float64, n)
		VecLerpInto(r.lerp, x, y, 0.7)
		r.dot = VecDot(x, y)
		r.dist = VecSquaredDistance(x, y)
		return r
	}
	var serial result
	withParallelism(t, 1, func() { serial = compute() })
	for _, p := range []int{2, 5} {
		var par result
		withParallelism(t, p, func() { par = compute() })
		for i := range serial.mean {
			if math.Float64bits(serial.mean[i]) != math.Float64bits(par.mean[i]) {
				t.Fatalf("VecMeanInto differs at parallelism %d, index %d", p, i)
			}
			if math.Float64bits(serial.wsum[i]) != math.Float64bits(par.wsum[i]) {
				t.Fatalf("VecWeightedSumInto differs at parallelism %d, index %d", p, i)
			}
			if math.Float64bits(serial.lerp[i]) != math.Float64bits(par.lerp[i]) {
				t.Fatalf("VecLerpInto differs at parallelism %d, index %d", p, i)
			}
		}
		if math.Float64bits(serial.dot) != math.Float64bits(par.dot) {
			t.Fatalf("VecDot differs at parallelism %d", p)
		}
		if math.Float64bits(serial.dist) != math.Float64bits(par.dist) {
			t.Fatalf("VecSquaredDistance differs at parallelism %d", p)
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

func TestArenaReusesBuffers(t *testing.T) {
	var a Arena
	t1 := a.Get(4, 8)
	p1 := &t1.Data()[0]
	a.Put(t1)
	t2 := a.Get(8, 4) // same element count, different shape
	if &t2.Data()[0] != p1 {
		t.Fatal("Arena.Get did not reuse the freed buffer")
	}
	if t2.Dim(0) != 8 || t2.Dim(1) != 4 {
		t.Fatalf("Arena.Get shape %v, want [8 4]", t2.Shape())
	}
	z := a.GetZeroed(2)
	for _, v := range z.Data() {
		if v != 0 {
			t.Fatal("GetZeroed returned dirty buffer")
		}
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

// Concurrently is the one level of parallelism above the kernels: every
// worker runs, and the kernels under them stay off the pool. The serial
// path is the one that allocates nothing, so allocations tell the two
// paths apart without a hook in the kernels.
func TestConcurrentlyKeepsKernelsSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := RandNormal(rng, 0, 1, 67, 129)
	b := RandNormal(rng, 0, 1, 129, 83)
	dst := New(67, 83)
	x := make([]float64, 3*vecGrain+517)
	y := RandNormal(rng, 0, 1, len(x)).Data()
	kernels := func() {
		MatMulInto(dst, a, b)
		VecAxpy(x, 0.5, y)
	}
	withParallelism(t, 4, func() {
		kernels()
		if outside := testing.AllocsPerRun(10, kernels); outside == 0 {
			t.Fatal("kernels outside a region did not shard at parallelism 4")
		}
		sharded := dst.Clone()

		var ran [3]atomic.Bool
		inside := -1.0
		Concurrently(len(ran), func(w int) {
			ran[w].Store(true)
			if w == 0 {
				inside = testing.AllocsPerRun(10, kernels)
			}
		})
		for w := range ran {
			if !ran[w].Load() {
				t.Fatalf("worker %d did not run", w)
			}
		}
		if inside != 0 {
			t.Fatalf("kernels inside a region allocated %.1f times per call, want the serial path's 0", inside)
		}
		if !bitsEqual(sharded, dst) {
			t.Fatal("MatMulInto differs between the sharded and the in-region serial path")
		}
		if regions.Load() != 0 {
			t.Fatalf("region count %d after the join", regions.Load())
		}
		if again := testing.AllocsPerRun(10, kernels); again == 0 {
			t.Fatal("kernels did not shard again after the region ended")
		}
	})
}

// A kernel that passed its serial check just before models started
// computing side by side reaches parallelFor inside the region. It must
// then walk the same chunks alone: vecReduce sums per-chunk partials,
// so one big chunk would move its bits.
func TestParallelForKeepsChunksInsideRegion(t *testing.T) {
	withParallelism(t, 4, func() {
		const n, grain = 3*64 + 5, 64
		chunked := func() (bounds [][2]int) {
			var mu sync.Mutex
			parallelFor(n, grain, func(lo, hi int) {
				mu.Lock()
				bounds = append(bounds, [2]int{lo, hi})
				mu.Unlock()
			})
			sort.Slice(bounds, func(i, j int) bool { return bounds[i][0] < bounds[j][0] })
			return bounds
		}
		outside := chunked()
		var inside [][2]int
		Concurrently(2, func(w int) {
			if w == 0 {
				inside = chunked()
			}
		})
		if len(outside) != 4 || !reflect.DeepEqual(inside, outside) {
			t.Fatalf("chunks inside a region %v, outside %v; want the same four", inside, outside)
		}
	})
}
