package tensor

import (
	"fmt"
	"math"
)

// The shared vector-math layer: serial kernels over flat []float64
// vectors. The nn layers, the aggregation package (simulator and wire
// paths) and the tensor element-wise methods all route through these
// helpers so there is exactly one implementation of hot flat-vector
// arithmetic in the tree. None of them allocates.
//
// Determinism contract: element-wise kernels give every element one
// fixed operation sequence, and reductions sum fixed vecGrain chunks
// and then combine the per-chunk partials in chunk order (vecReduce),
// so a reduction's bits depend only on the vector length.

// vecGrain is the fixed chunk size of the reductions. The golden
// fixtures pin the chunked summation order, so it must not change.
const vecGrain = 4096

// vecCheck panics unless dst and src have the same length. The panic
// value formats only when printed, which keeps the check cheap enough
// for the element-wise kernels to inline into their callers (matmul's
// VecAxpy calls among them).
func vecCheck(op string, dst, src []float64) {
	if len(dst) != len(src) {
		panic(lengthMismatch{op, len(dst), len(src)})
	}
}

type lengthMismatch struct {
	op       string
	dst, src int
}

func (e lengthMismatch) Error() string {
	return fmt.Sprintf("tensor: %s lengths %d vs %d", e.op, e.dst, e.src)
}

// VecFill sets every element of dst to v.
func VecFill(dst []float64, v float64) {
	for i := range dst {
		dst[i] = v
	}
}

// VecAccumulate sets dst += src element-wise (the reduce step of ring
// all-reduce). It panics on length mismatch.
func VecAccumulate(dst, src []float64) {
	vecCheck("VecAccumulate", dst, src)
	for i, v := range src {
		dst[i] += v
	}
}

// VecSub sets dst -= src element-wise.
func VecSub(dst, src []float64) {
	vecCheck("VecSub", dst, src)
	for i, v := range src {
		dst[i] -= v
	}
}

// VecMul sets dst *= src element-wise (Hadamard product).
func VecMul(dst, src []float64) {
	vecCheck("VecMul", dst, src)
	for i, v := range src {
		dst[i] *= v
	}
}

// VecScale sets v *= s element-wise (the 1/K step after an all-reduce).
func VecScale(v []float64, s float64) {
	for i := range v {
		v[i] *= s
	}
}

// VecAxpy sets dst += a·src (BLAS axpy).
func VecAxpy(dst []float64, a float64, src []float64) {
	vecCheck("VecAxpy", dst, src)
	src = src[:len(dst)] // lets the compiler drop the loop's bounds checks
	for i := range dst {
		dst[i] += a * src[i]
	}
}

// VecMeanInto sets dst[i] = mean_k(vecs[k][i]). Every vector must have
// len(dst) elements; the accumulation over vectors runs in slice order
// for every element.
func VecMeanInto(dst []float64, vecs [][]float64) {
	if len(vecs) == 0 {
		panic("tensor: VecMeanInto of no vectors")
	}
	for k, v := range vecs {
		if len(v) != len(dst) {
			panic(fmt.Sprintf("tensor: VecMeanInto vector %d length %d, want %d", k, len(v), len(dst)))
		}
	}
	copy(dst, vecs[0])
	for _, v := range vecs[1:] {
		for i, x := range v {
			dst[i] += x
		}
	}
	VecScale(dst, 1.0/float64(len(vecs)))
}

// VecWeightedSumInto sets dst[i] = Σ_k weights[k]·vecs[k][i]. The caller
// validates weights; accumulation runs in slice order per element.
func VecWeightedSumInto(dst []float64, vecs [][]float64, weights []float64) {
	if len(vecs) == 0 || len(vecs) != len(weights) {
		panic(fmt.Sprintf("tensor: VecWeightedSumInto %d vectors vs %d weights", len(vecs), len(weights)))
	}
	for k, v := range vecs {
		if len(v) != len(dst) {
			panic(fmt.Sprintf("tensor: VecWeightedSumInto vector %d length %d, want %d", k, len(v), len(dst)))
		}
	}
	clear(dst)
	for k, v := range vecs {
		if w := weights[k]; w != 0 {
			VecAxpy(dst, w, v)
		}
	}
}

// VecLerpInto sets dst[i] = beta·b[i] + (1−beta)·a[i], the weighted
// merge used when a device integrates a broadcast model.
func VecLerpInto(dst, a, b []float64, beta float64) {
	vecCheck("VecLerpInto", dst, a)
	vecCheck("VecLerpInto", dst, b)
	ia := 1 - beta
	for i := range dst {
		dst[i] = beta*b[i] + ia*a[i]
	}
}

// VecDot returns Σ a[i]·b[i], summed by fixed vecGrain chunks whose
// partials combine in chunk order.
func VecDot(a, b []float64) float64 {
	vecCheck("VecDot", a, b)
	return vecReduce(len(a), func(lo, hi int) float64 {
		s := 0.0
		x, y := a[lo:hi], b[lo:hi]
		for i, v := range x {
			s += v * y[i]
		}
		return s
	})
}

// VecSquaredDistance returns Σ (a[i]−b[i])², summed like VecDot.
func VecSquaredDistance(a, b []float64) float64 {
	vecCheck("VecSquaredDistance", a, b)
	return vecReduce(len(a), func(lo, hi int) float64 {
		s := 0.0
		x, y := a[lo:hi], b[lo:hi]
		for i, v := range x {
			d := v - y[i]
			s += d * d
		}
		return s
	})
}

// VecSum returns Σ v[i], summed by fixed vecGrain chunks whose partials
// combine in chunk order — so the bits depend only on len(v), not on
// how callers batched the writes that filled v (the evaluation engine's
// per-sample loss reduction).
func VecSum(v []float64) float64 {
	return vecReduce(len(v), func(lo, hi int) float64 {
		s := 0.0
		for _, x := range v[lo:hi] {
			s += x
		}
		return s
	})
}

// VecNorm2 returns the Euclidean norm of v.
func VecNorm2(v []float64) float64 {
	return math.Sqrt(VecDot(v, v))
}

// vecReduce evaluates partial over the fixed vecGrain chunks of [0, n)
// and sums the partials in chunk order.
func vecReduce(n int, partial func(lo, hi int) float64) float64 {
	s := 0.0
	for lo := 0; lo < n; lo += vecGrain {
		s += partial(lo, min(lo+vecGrain, n))
	}
	return s
}
