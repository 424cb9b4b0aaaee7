// Package aggregate implements the model-aggregation arithmetic of
// HADFL and its baselines: FedAvg means, the flag-based partial
// aggregation of the paper's Eq. 5, weighted merges for broadcast
// integration, and gradient sums for ring all-reduce.
//
// All functions operate on flat []float64 parameter vectors (the wire
// format produced by nn.Model.Parameters), keeping the package agnostic
// to model architecture. The arithmetic itself lives in the shared
// vector-math layer (internal/tensor's Vec helpers), so the simulator
// and the wire paths (internal/p2p ring reduce, internal/runtime) run
// one implementation with one summation order.
package aggregate

import (
	"fmt"
	"math"

	"hadfl/internal/tensor"
)

// Mean returns the element-wise average of the vectors (FedAvg, Eq. 4).
// It panics on empty input or mismatched lengths.
func Mean(vectors [][]float64) []float64 {
	if len(vectors) == 0 {
		panic("aggregate: Mean of no vectors")
	}
	out := make([]float64, len(vectors[0]))
	MeanInto(out, vectors)
	return out
}

// MeanInto writes the element-wise average into out, the allocation-free
// path for callers that reuse an aggregation buffer across rounds.
func MeanInto(out []float64, vectors [][]float64) {
	if len(vectors) == 0 {
		panic("aggregate: Mean of no vectors")
	}
	for _, v := range vectors {
		if len(v) != len(out) {
			panic(fmt.Sprintf("aggregate: vector length %d, want %d", len(v), len(out)))
		}
	}
	tensor.VecMeanInto(out, vectors)
}

// WeightedMean returns Σ wᵢ·vᵢ / Σ wᵢ. Weights must be non-negative with
// a positive sum.
func WeightedMean(vectors [][]float64, weights []float64) []float64 {
	if len(vectors) == 0 || len(vectors) != len(weights) {
		panic(fmt.Sprintf("aggregate: %d vectors vs %d weights", len(vectors), len(weights)))
	}
	n := len(vectors[0])
	sum := 0.0
	for k, v := range vectors {
		if len(v) != n {
			panic(fmt.Sprintf("aggregate: vector length %d, want %d", len(v), n))
		}
		if weights[k] < 0 {
			panic(fmt.Sprintf("aggregate: negative weight %v", weights[k]))
		}
		sum += weights[k]
	}
	if sum <= 0 {
		panic("aggregate: weights sum to zero")
	}
	out := make([]float64, n)
	tensor.VecWeightedSumInto(out, vectors, weights)
	tensor.VecScale(out, 1/sum)
	return out
}

// PartialMean implements the paper's Eq. 5 partial aggregation
// w(t+1) = Σ Flagₖ·wₖ normalized over the selected devices. The paper
// prints the normalizer as 1/K (all devices); dividing a sum of Np < K
// vectors by K would shrink the model every round, so we normalize by
// the number of selected devices — the reading consistent with the
// broadcast step that follows. flags[k] selects vectors[k].
func PartialMean(vectors [][]float64, flags []bool) []float64 {
	if len(vectors) == 0 || len(vectors) != len(flags) {
		panic(fmt.Sprintf("aggregate: %d vectors vs %d flags", len(vectors), len(flags)))
	}
	var sel [][]float64
	for k, f := range flags {
		if f {
			sel = append(sel, vectors[k])
		}
	}
	if len(sel) == 0 {
		panic("aggregate: PartialMean with no flagged device")
	}
	return Mean(sel)
}

// Merge integrates a received (broadcast) model into a local one:
// out = beta·recv + (1−beta)·local, the "integrate the received model
// parameters with local parameters" step for unselected devices
// (§III-D). beta=1 replaces the local model outright.
func Merge(local, recv []float64, beta float64) []float64 {
	out := make([]float64, len(local))
	MergeInto(out, local, recv, beta)
	return out
}

// MergeInto is Merge writing into a caller-owned buffer (which may
// alias local, the in-place integration case).
func MergeInto(out, local, recv []float64, beta float64) {
	if len(local) != len(recv) {
		panic(fmt.Sprintf("aggregate: Merge lengths %d vs %d", len(local), len(recv)))
	}
	if beta < 0 || beta > 1 {
		panic(fmt.Sprintf("aggregate: Merge beta %v outside [0,1]", beta))
	}
	tensor.VecLerpInto(out, local, recv, beta)
}

// SumInto accumulates src into dst element-wise (the reduce step of ring
// all-reduce). It panics on length mismatch.
func SumInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("aggregate: SumInto lengths %d vs %d", len(dst), len(src)))
	}
	tensor.VecAccumulate(dst, src)
}

// ScaleInPlace multiplies vec by s (the 1/K step after an all-reduce sum).
func ScaleInPlace(vec []float64, s float64) {
	tensor.VecScale(vec, s)
}

// L2Distance returns the Euclidean distance between two parameter
// vectors, used by convergence diagnostics and tests.
func L2Distance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("aggregate: L2Distance lengths %d vs %d", len(a), len(b)))
	}
	return math.Sqrt(tensor.VecSquaredDistance(a, b))
}
