package tensor

import "fmt"

// Matrix kernels. All three product shapes (a·b, aᵀ·b, a·bᵀ) come in
// allocating, into, and (where the nn backward passes accumulate)
// into-accumulate forms, plus a fused matmul+bias epilogue for the
// dense/conv forward path. Every output element is one sum taken in
// ascending inner-index order with the bias added last.
//
// Inside a row the loops are register-tiled so each value loaded feeds
// four accumulators. Two loops may be tiled without touching any sum:
//
//   - a·bᵀ is a grid of independent dot products; dot4 walks one row of
//     a against four rows of b, so each a[p] feeds four running sums.
//   - a·b and aᵀ·b add a[i][p]·b[p][·] into output row i for ascending
//     p; axpy4 folds four consecutive contributing p into one pass,
//     d = (((d + a0·b0) + a1·b1) + a2·b2) + a3·b3, which is the same
//     additions in the same order with d read and written once, not
//     four times. These two forms are also k-blocked (blockK); a·bᵀ is
//     not, its operands are already contiguous along k.
//
// What may not be done is anything that splits one element's sum —
// partial sums over halves of k, a second accumulator per element,
// reordered terms — because float addition does not reassociate. The
// golden fixtures (testdata/golden_runs.json, benchmark/golden) pin the
// resulting bits. They are amd64 bits: the Go spec lets a compiler fuse
// x*y + z into one rounding, which arm64 does and amd64 does not, so
// another architecture may legitimately produce different fixtures.
//
// The kernels allocate nothing.

// blockK is the inner-dimension tile of a·b and aᵀ·b: one tile of b
// (blockK rows) stays resident in cache while the output rows stream
// over it.
const blockK = 256

// matDims checks the operands of the product op — both 2-D, the inner
// dimensions equal once a (transA) or b (transB) is read transposed —
// and returns the product's m, k, n.
func matDims(op string, a, b *Tensor, transA, transB bool) (m, k, n int) {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: %s needs 2-D operands, got %v and %v", op, a.shape, b.shape))
	}
	m, k = a.shape[0], a.shape[1]
	kb, n := b.shape[0], b.shape[1]
	aT, bT := "", ""
	if transA {
		m, k, aT = k, m, "ᵀ"
	}
	if transB {
		kb, n, bT = n, kb, "ᵀ"
	}
	if k != kb {
		panic(fmt.Sprintf("tensor: %s inner dimensions differ: %v%s · %v%s", op, a.shape, aT, b.shape, bT))
	}
	return m, k, n
}

// MatMul returns the matrix product a·b for 2-D tensors a (m×k) and b (k×n).
func MatMul(a, b *Tensor) *Tensor {
	m, _, n := matDims("MatMul", a, b, false, false)
	out := New(m, n)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a·b, reusing dst's storage. dst must be m×n.
func MatMulInto(dst, a, b *Tensor) {
	m, k, n := matDims("MatMulInto", a, b, false, false)
	mustShape("MatMulInto dst", dst, m, n)
	mulAddInto(dst.data, a.data, b.data, m, k, n, k, 1, false)
}

// MatMulTransA returns aᵀ·b for a (k×m) and b (k×n), producing m×n,
// without materializing the transpose.
func MatMulTransA(a, b *Tensor) *Tensor {
	m, _, n := matDims("MatMulTransA", a, b, true, false)
	out := New(m, n)
	MatMulTransAInto(out, a, b)
	return out
}

// MatMulTransAInto computes dst = aᵀ·b for a (k×m), b (k×n), dst (m×n).
func MatMulTransAInto(dst, a, b *Tensor) { matMulTransAInto(dst, a, b, false) }

// MatMulTransAAccInto computes dst += aᵀ·b, the dense/conv weight-
// gradient accumulation (dW += gradᵀ·x) without a temporary.
func MatMulTransAAccInto(dst, a, b *Tensor) { matMulTransAInto(dst, a, b, true) }

func matMulTransAInto(dst, a, b *Tensor, acc bool) {
	m, k, n := matDims("MatMulTransAInto", a, b, true, false)
	mustShape("MatMulTransAInto dst", dst, m, n)
	mulAddInto(dst.data, a.data, b.data, m, k, n, 1, m, acc)
}

// mulAddInto computes dst = A·b (dst += A·b with acc) for the m×k matrix
// A whose element (i, p) is ad[i*si+p*sp]: si, sp = k, 1 reads a
// row-major a; si, sp = 1, m reads the transpose of a k×m a in place.
// It is k-blocked so a tile of b stays cache-resident across the rows.
// Row i takes A[i][p]·b[p] for ascending p. A zero A[i][p] adds nothing
// — not the NaN of 0·Inf when b has diverged, not the +0 that would
// turn a −0 already in dst positive — so zeros are dropped first and
// the survivors go in four at a time: a gradient that came through a
// ReLU is half zeros and still fills its groups. What reaches each
// element is exactly the naive i-p-j loop's sum.
func mulAddInto(dd, ad, bd []float64, m, k, n, si, sp int, acc bool) {
	for p0 := 0; p0 < k; p0 += blockK {
		p1 := min(p0+blockK, k)
		for i := 0; i < m; i++ {
			drow := dd[i*n : (i+1)*n]
			if p0 == 0 && !acc {
				clear(drow)
			}
			var (
				av [4]float64 // pending nonzero A[i][p] ...
				bv [4]int     // ... and where each one's row of b starts
				c  int
			)
			for p := p0; p < p1; p++ {
				a := ad[i*si+p*sp]
				if a == 0 {
					continue
				}
				av[c], bv[c] = a, p*n
				if c++; c == 4 {
					axpy4(drow, bd, &bv, &av)
					c = 0
				}
			}
			for q := 0; q < c; q++ {
				VecAxpy(drow, av[q], bd[bv[q]:bv[q]+n])
			}
		}
	}
}

// axpy4 adds four rows of b, starting at b[at[0..3]] and scaled by
// a[0..3], to d in one pass; each d[j] takes its four terms left to
// right, as four axpy calls would give it, but is loaded and stored
// once. Slicing every row to len(d) lets the compiler drop the bounds
// checks in the loop. Inlined into mulAddInto the loop's five pointers
// and four scalars spill to the stack and it runs at half the speed.
//
//go:noinline
func axpy4(d, b []float64, at *[4]int, a *[4]float64) {
	b0, b1, b2, b3 := b[at[0]:][:len(d)], b[at[1]:][:len(d)], b[at[2]:][:len(d)], b[at[3]:][:len(d)]
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	for j := range d {
		d[j] = (((d[j] + a0*b0[j]) + a1*b1[j]) + a2*b2[j]) + a3*b3[j]
	}
}

// MatMulTransB returns a·bᵀ for a (m×k) and b (n×k), producing m×n,
// without materializing the transpose.
func MatMulTransB(a, b *Tensor) *Tensor {
	m, _, n := matDims("MatMulTransB", a, b, false, true)
	out := New(m, n)
	MatMulTransBInto(out, a, b)
	return out
}

// MatMulTransBInto computes dst = a·bᵀ for a (m×k), b (n×k), dst (m×n).
func MatMulTransBInto(dst, a, b *Tensor) { matMulTransBInto(dst, a, b, nil) }

// MatMulTransBBiasInto computes dst = a·bᵀ + bias broadcast over rows —
// the fused dense/conv forward epilogue (bias has n elements).
func MatMulTransBBiasInto(dst, a, b, bias *Tensor) {
	_, _, n := matDims("MatMulTransBBiasInto", a, b, false, true)
	mustShape("MatMulTransBBiasInto bias", bias, n)
	matMulTransBInto(dst, a, b, bias.data)
}

func matMulTransBInto(dst, a, b *Tensor, bias []float64) {
	m, k, n := matDims("MatMulTransBInto", a, b, false, true)
	mustShape("MatMulTransBInto dst", dst, m, n)
	// Contiguous dot products, four columns at a time, each summed in
	// ascending p order with its bias added after the sum is complete.
	ad, bd, dd := a.data, b.data, dst.data
	for i := 0; i < m; i++ {
		arow := ad[i*k : (i+1)*k]
		drow := dd[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			drow[j], drow[j+1], drow[j+2], drow[j+3] = dot4(arow, bd[j*k:(j+4)*k])
		}
		for ; j < n; j++ {
			drow[j] = dot(arow, bd[j*k:(j+1)*k])
		}
		if bias != nil {
			for j, bv := range bias {
				drow[j] += bv
			}
		}
	}
}

// dot returns Σ a[p]·b[p], summed from zero in ascending p. VecDot is
// not a substitute: it sums by vecGrain chunks, a different order once
// k exceeds one chunk.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	s := 0.0
	for p, av := range a {
		s += av * b[p]
	}
	return s
}

// dot4 returns the dot products of a with four rows of b, laid out back
// to back, in one pass over a: four independent sums, each exactly
// dot's. Slicing every row to len(a) lets the compiler drop the bounds
// checks in the loop.
func dot4(a, b []float64) (s0, s1, s2, s3 float64) {
	k := len(a)
	b0, b1, b2, b3 := b[:k], b[k:][:k], b[2*k:][:k], b[3*k:][:k]
	for p, av := range a {
		s0 += av * b0[p]
		s1 += av * b1[p]
		s2 += av * b2[p]
		s3 += av * b3[p]
	}
	return s0, s1, s2, s3
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: Transpose needs a 2-D tensor, got %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out
}

// AddRowVector adds the length-n vector v to every row of the m×n matrix a,
// in place, and returns a. Used to apply bias terms.
func AddRowVector(a, v *Tensor) *Tensor {
	if a.Dims() != 2 || v.Dims() != 1 || v.shape[0] != a.shape[1] {
		panic(fmt.Sprintf("tensor: AddRowVector shapes %v, %v", a.shape, v.shape))
	}
	m, n := a.shape[0], a.shape[1]
	for i := 0; i < m; i++ {
		row := a.data[i*n : (i+1)*n]
		for j, bv := range v.data {
			row[j] += bv
		}
	}
	return a
}

// SumRows returns the length-n column-sum of the m×n matrix a. Used to
// reduce bias gradients over a batch.
func SumRows(a *Tensor) *Tensor {
	out := New(a.shape[1])
	SumRowsAccInto(out, a)
	return out
}

// SumRowsInto computes dst = column sums of a (dst has a.Dim(1) elems).
func SumRowsInto(dst, a *Tensor) {
	dst.Zero()
	SumRowsAccInto(dst, a)
}

// SumRowsAccInto computes dst += column sums of the m×n matrix a, the
// bias-gradient reduction (dB += Σ_batch grad). Rows accumulate in
// ascending order per column.
func SumRowsAccInto(dst, a *Tensor) {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: SumRowsAccInto needs a 2-D tensor, got %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	mustShape("SumRowsAccInto dst", dst, n)
	dd := dst.data
	for i := 0; i < m; i++ {
		for j, v := range a.data[i*n : (i+1)*n] {
			dd[j] += v
		}
	}
}
