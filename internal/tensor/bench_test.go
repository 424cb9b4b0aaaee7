package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel benchmarks for the compute core. Run with:
//
//	go test -run '^$' -bench BenchmarkMatMul -benchmem ./internal/tensor
//
// Every product is named by its own M×K×N (dst is M×N, K is the summed
// dimension) and reports GFLOP/s next to ns/op, so rows compare across
// shapes and hosts.

// layers are the layers training actually runs, as rows×in×out:
// ResNetTiny/VGGTiny's first and second conv stages after im2col, and
// the MLP profile's hidden layer. Each costs three products a step, one
// per transpose form:
//
//	forward   y  = x·Wᵀ + b   MatMulTransBBiasInto  rows×in×out
//	backward  dx = g·W        MatMulInto            rows×out×in
//	backward  dW += gᵀ·x      MatMulTransAAccInto   out×rows×in
//
// gradZeros is the share of exact zeros in g, which the two backward
// kernels skip: the conv profile's gradients are dense (batch norm sits
// between a conv and its ReLU), the MLP's come straight through a ReLU.
var layers = []struct {
	rows, in, out int
	gradZeros     float64
}{
	{2048, 72, 8, 0},
	{512, 144, 16, 0},
	{64, 32, 32, 0.5},
}

// benchKernel times one product. aRows is a's leading dimension (m, or
// k for the aᵀ·b form), bRows is b's (k, or n for the a·bᵀ form);
// aZeros of a's elements are set to zero.
func benchKernel(b *testing.B, m, k, n, aRows, bRows int, aZeros float64, run func(dst, a, bb, bias *Tensor)) {
	b.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		a := RandNormal(rng, 0, 1, aRows, m*k/aRows)
		for i := range a.data {
			if rng.Float64() < aZeros {
				a.data[i] = 0
			}
		}
		bb := RandNormal(rng, 0, 1, bRows, k*n/bRows)
		bias := RandNormal(rng, 0, 1, n)
		dst := New(m, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(dst, a, bb, bias)
		}
		b.ReportMetric(2*float64(m)*float64(k)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	})
}

func BenchmarkMatMulInto(b *testing.B) {
	run := func(dst, a, bb, _ *Tensor) { MatMulInto(dst, a, bb) }
	for _, s := range [][3]int{{64, 64, 64}, {256, 256, 256}, {1024, 256, 256}} {
		benchKernel(b, s[0], s[1], s[2], s[0], s[1], 0, run)
	}
	for _, l := range layers {
		benchKernel(b, l.rows, l.out, l.in, l.rows, l.out, l.gradZeros, run)
	}
}

func BenchmarkMatMulTransAAccInto(b *testing.B) {
	run := func(dst, a, bb, _ *Tensor) { MatMulTransAAccInto(dst, a, bb) }
	benchKernel(b, 256, 1024, 256, 1024, 1024, 0, run)
	for _, l := range layers {
		benchKernel(b, l.out, l.rows, l.in, l.rows, l.rows, l.gradZeros, run)
	}
}

func BenchmarkMatMulTransBBiasInto(b *testing.B) {
	benchKernel(b, 512, 256, 256, 512, 256, 0, MatMulTransBBiasInto)
	for _, l := range layers {
		benchKernel(b, l.rows, l.in, l.out, l.rows, l.out, 0, MatMulTransBBiasInto)
	}
}

func BenchmarkVecMean(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const n, k = 1 << 16, 4
	vecs := make([][]float64, k)
	for i := range vecs {
		v := make([]float64, n)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		vecs[i] = v
	}
	dst := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VecMeanInto(dst, vecs)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := RandNormal(rng, 0, 1, 32, 3, 8, 8)
	cols := New(32*8*8, 3*3*3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2ColInto(cols, x, 3, 3, 1, 1)
	}
}
