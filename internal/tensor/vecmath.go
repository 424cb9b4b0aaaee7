package tensor

import (
	"fmt"
	"math"
)

// The shared vector-math layer: chunked, optionally parallel kernels
// over flat []float64 vectors. The nn layers, the aggregation package
// (simulator and wire paths) and the tensor element-wise methods all
// route through these helpers so there is exactly one implementation
// of hot flat-vector arithmetic in the tree.
//
// Determinism contract: chunk boundaries depend only on the vector
// length (vecGrain), element-wise kernels own disjoint ranges, and
// reductions combine per-chunk partials in chunk order — so results
// are bit-identical at every parallelism level.
//
// Like the matrix kernels, every operation runs a closure-free serial
// loop when parallelism is 1 or the vector is a single chunk, keeping
// the steady-state training step allocation-free.

// vecGrain is the fixed chunk size for vector kernels. Fixed — not
// derived from the worker count — so reduction orders never change.
const vecGrain = 4096

// vecSerial reports whether a vector op of length n should run inline.
func vecSerial(n int) bool {
	return poolIdle() || n <= vecGrain
}

func vecCheck(op string, dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: %s lengths %d vs %d", op, len(dst), len(src)))
	}
}

// VecFill sets every element of dst to v.
func VecFill(dst []float64, v float64) {
	if vecSerial(len(dst)) {
		for i := range dst {
			dst[i] = v
		}
		return
	}
	parallelFor(len(dst), vecGrain, func(lo, hi int) {
		d := dst[lo:hi]
		for i := range d {
			d[i] = v
		}
	})
}

// VecAccumulate sets dst += src element-wise (the reduce step of ring
// all-reduce). It panics on length mismatch.
func VecAccumulate(dst, src []float64) {
	vecCheck("VecAccumulate", dst, src)
	if vecSerial(len(dst)) {
		for i, v := range src {
			dst[i] += v
		}
		return
	}
	parallelFor(len(dst), vecGrain, func(lo, hi int) {
		d, s := dst[lo:hi], src[lo:hi]
		for i, v := range s {
			d[i] += v
		}
	})
}

// VecSub sets dst -= src element-wise.
func VecSub(dst, src []float64) {
	vecCheck("VecSub", dst, src)
	if vecSerial(len(dst)) {
		for i, v := range src {
			dst[i] -= v
		}
		return
	}
	parallelFor(len(dst), vecGrain, func(lo, hi int) {
		d, s := dst[lo:hi], src[lo:hi]
		for i, v := range s {
			d[i] -= v
		}
	})
}

// VecMul sets dst *= src element-wise (Hadamard product).
func VecMul(dst, src []float64) {
	vecCheck("VecMul", dst, src)
	if vecSerial(len(dst)) {
		for i, v := range src {
			dst[i] *= v
		}
		return
	}
	parallelFor(len(dst), vecGrain, func(lo, hi int) {
		d, s := dst[lo:hi], src[lo:hi]
		for i, v := range s {
			d[i] *= v
		}
	})
}

// VecScale sets v *= s element-wise (the 1/K step after an all-reduce).
func VecScale(v []float64, s float64) {
	if vecSerial(len(v)) {
		for i := range v {
			v[i] *= s
		}
		return
	}
	parallelFor(len(v), vecGrain, func(lo, hi int) {
		d := v[lo:hi]
		for i := range d {
			d[i] *= s
		}
	})
}

// VecAxpy sets dst += a·src (BLAS axpy).
func VecAxpy(dst []float64, a float64, src []float64) {
	vecCheck("VecAxpy", dst, src)
	if vecSerial(len(dst)) {
		for i, v := range src {
			dst[i] += a * v
		}
		return
	}
	parallelFor(len(dst), vecGrain, func(lo, hi int) {
		d, s := dst[lo:hi], src[lo:hi]
		for i, v := range s {
			d[i] += a * v
		}
	})
}

// vecMeanRange computes dst[lo:hi] of the element-wise mean,
// accumulating over vectors in slice order.
func vecMeanRange(dst []float64, vecs [][]float64, inv float64, lo, hi int) {
	d := dst[lo:hi]
	copy(d, vecs[0][lo:hi])
	for _, v := range vecs[1:] {
		s := v[lo:hi]
		for i, x := range s {
			d[i] += x
		}
	}
	for i := range d {
		d[i] *= inv
	}
}

// VecMeanInto sets dst[i] = mean_k(vecs[k][i]). Every vector must have
// len(dst) elements; the accumulation over vectors runs in slice order
// for every element, so the result is independent of parallelism.
func VecMeanInto(dst []float64, vecs [][]float64) {
	if len(vecs) == 0 {
		panic("tensor: VecMeanInto of no vectors")
	}
	for k, v := range vecs {
		if len(v) != len(dst) {
			panic(fmt.Sprintf("tensor: VecMeanInto vector %d length %d, want %d", k, len(v), len(dst)))
		}
	}
	inv := 1.0 / float64(len(vecs))
	if vecSerial(len(dst)) {
		vecMeanRange(dst, vecs, inv, 0, len(dst))
		return
	}
	parallelFor(len(dst), vecGrain, func(lo, hi int) {
		vecMeanRange(dst, vecs, inv, lo, hi)
	})
}

// vecWeightedSumRange computes dst[lo:hi] of the weighted sum,
// accumulating over vectors in slice order.
func vecWeightedSumRange(dst []float64, vecs [][]float64, weights []float64, lo, hi int) {
	d := dst[lo:hi]
	for i := range d {
		d[i] = 0
	}
	for k, v := range vecs {
		w := weights[k]
		if w == 0 {
			continue
		}
		s := v[lo:hi]
		for i, x := range s {
			d[i] += w * x
		}
	}
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
	if vecSerial(len(dst)) {
		vecWeightedSumRange(dst, vecs, weights, 0, len(dst))
		return
	}
	parallelFor(len(dst), vecGrain, func(lo, hi int) {
		vecWeightedSumRange(dst, vecs, weights, lo, hi)
	})
}

// VecLerpInto sets dst[i] = beta·b[i] + (1−beta)·a[i], the weighted
// merge used when a device integrates a broadcast model.
func VecLerpInto(dst, a, b []float64, beta float64) {
	vecCheck("VecLerpInto", dst, a)
	vecCheck("VecLerpInto", dst, b)
	ia := 1 - beta
	if vecSerial(len(dst)) {
		for i := range dst {
			dst[i] = beta*b[i] + ia*a[i]
		}
		return
	}
	parallelFor(len(dst), vecGrain, func(lo, hi int) {
		d, av, bv := dst[lo:hi], a[lo:hi], b[lo:hi]
		for i := range d {
			d[i] = beta*bv[i] + ia*av[i]
		}
	})
}

// VecDot returns Σ a[i]·b[i]. Partial sums are computed over fixed
// vecGrain chunks and combined in chunk order, so the value is
// identical at every parallelism level.
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

// VecSquaredDistance returns Σ (a[i]−b[i])², with the same fixed-chunk
// determinism as VecDot.
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

// VecSum returns Σ v[i], computed over fixed vecGrain chunks whose
// partials combine in chunk order — so the bits depend only on len(v),
// not on the parallelism level or on how callers batched the writes
// that filled v (the evaluation engine's per-sample loss reduction).
// The serial path runs closure-free so steady-state evaluation stays
// allocation-free.
func VecSum(v []float64) float64 {
	if vecSerial(len(v)) {
		s := 0.0
		for lo := 0; lo < len(v); lo += vecGrain {
			hi := lo + vecGrain
			if hi > len(v) {
				hi = len(v)
			}
			cs := 0.0
			for _, x := range v[lo:hi] {
				cs += x
			}
			s += cs
		}
		return s
	}
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

// vecReduce evaluates partial over fixed vecGrain chunks and sums the
// partials in chunk order. The serial path uses the same chunking as
// the parallel one, so the reduction order — and therefore the bits —
// never depend on the worker count.
func vecReduce(n int, partial func(lo, hi int) float64) float64 {
	if vecSerial(n) {
		s := 0.0
		for lo := 0; lo < n; lo += vecGrain {
			hi := lo + vecGrain
			if hi > n {
				hi = n
			}
			s += partial(lo, hi)
		}
		return s
	}
	chunks := (n + vecGrain - 1) / vecGrain
	parts := make([]float64, chunks)
	parallelFor(n, vecGrain, func(lo, hi int) {
		parts[lo/vecGrain] = partial(lo, hi)
	})
	s := 0.0
	for _, p := range parts {
		s += p
	}
	return s
}
