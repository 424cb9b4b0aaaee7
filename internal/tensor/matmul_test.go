package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(a, b)
	want := FromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !got.Equal(want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", got.Data(), want.Data())
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandNormal(rng, 0, 1, 4, 4)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(1, i, i)
	}
	if got := MatMul(a, id); !got.Equal(a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if got := MatMul(id, a); !got.Equal(a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

// Every form, allocating and into, rejects operands that are not
// matrices, inner dimensions that disagree, and a dst of the wrong
// shape — with a message naming the form, not an index panic from
// inside a kernel (or, for a b with too many rows, a silently wrong
// product).
func TestMatMulDimensionPanics(t *testing.T) {
	mustPanic := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			t.Helper()
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, want) {
				t.Errorf("%s: panic %q, want one containing %q", name, msg, want)
			}
		}()
		fn()
	}
	v, bias := New(3), New(4)
	forms := []struct {
		name string
		// a and b multiply to a 2×4 product over k = 3; the bad pairs
		// disagree on k in both directions (b too short, b too long).
		a, b  *Tensor
		short *Tensor
		long  *Tensor
		alloc func(a, b *Tensor)
		into  func(dst, a, b *Tensor)
	}{
		{"MatMul", New(2, 3), New(3, 4), New(2, 4), New(5, 4),
			func(a, b *Tensor) { MatMul(a, b) }, MatMulInto},
		{"MatMulTransA", New(3, 2), New(3, 4), New(2, 4), New(5, 4),
			func(a, b *Tensor) { MatMulTransA(a, b) }, MatMulTransAInto},
		{"MatMulTransAAcc", New(3, 2), New(3, 4), New(2, 4), New(5, 4),
			nil, MatMulTransAAccInto},
		{"MatMulTransB", New(2, 3), New(4, 3), New(4, 2), New(4, 5),
			func(a, b *Tensor) { MatMulTransB(a, b) }, MatMulTransBInto},
		{"MatMulTransBBias", New(2, 3), New(4, 3), New(4, 2), New(4, 5),
			nil, func(dst, a, b *Tensor) { MatMulTransBBiasInto(dst, a, b, bias) }},
	}
	for _, f := range forms {
		dst := New(2, 4)
		f.into(dst, f.a, f.b) // the well-formed call must not panic
		for _, bad := range []*Tensor{f.short, f.long} {
			mustPanic(f.name+"Into inner", "inner dimensions differ", func() { f.into(dst, f.a, bad) })
		}
		mustPanic(f.name+"Into 1-D a", "needs 2-D operands", func() { f.into(dst, v, f.b) })
		mustPanic(f.name+"Into 1-D b", "needs 2-D operands", func() { f.into(dst, f.a, v) })
		mustPanic(f.name+"Into dst", "dst shape", func() { f.into(New(4, 2), f.a, f.b) })
		mustPanic(f.name+"Into 3-D dst", "dst shape", func() { f.into(New(2, 4, 1), f.a, f.b) })
		if f.alloc == nil {
			continue
		}
		mustPanic(f.name+" inner", "inner dimensions differ", func() { f.alloc(f.a, f.short) })
		mustPanic(f.name+" 1-D", "needs 2-D operands", func() { f.alloc(v, f.b) })
	}
}

func TestMatMulTransAMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandNormal(rng, 0, 1, 5, 3) // k=5, m=3
	b := RandNormal(rng, 0, 1, 5, 4) // k=5, n=4
	got := MatMulTransA(a, b)
	want := MatMul(Transpose(a), b)
	if !got.Equal(want, 1e-10) {
		t.Fatal("MatMulTransA != Transpose+MatMul")
	}
}

func TestMatMulTransBMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := RandNormal(rng, 0, 1, 3, 5)
	b := RandNormal(rng, 0, 1, 4, 5)
	got := MatMulTransB(a, b)
	want := MatMul(a, Transpose(b))
	if !got.Equal(want, 1e-10) {
		t.Fatal("MatMulTransB != MatMul+Transpose")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := RandNormal(rng, 0, 1, 3, 7)
	if !Transpose(Transpose(a)).Equal(a, 0) {
		t.Fatal("(Aᵀ)ᵀ != A")
	}
}

func TestAddRowVectorAndSumRows(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	v := FromSlice([]float64{10, 20, 30}, 3)
	AddRowVector(a, v)
	want := FromSlice([]float64{11, 22, 33, 14, 25, 36}, 2, 3)
	if !a.Equal(want, 0) {
		t.Fatalf("AddRowVector = %v", a.Data())
	}
	s := SumRows(a)
	wantS := FromSlice([]float64{25, 47, 69}, 3)
	if !s.Equal(wantS, 0) {
		t.Fatalf("SumRows = %v", s.Data())
	}
}

// Property: matrix multiplication is associative: (AB)C == A(BC).
func TestPropertyMatMulAssociative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n, p := rng.Intn(5)+1, rng.Intn(5)+1, rng.Intn(5)+1, rng.Intn(5)+1
		a := RandNormal(rng, 0, 1, m, k)
		b := RandNormal(rng, 0, 1, k, n)
		c := RandNormal(rng, 0, 1, n, p)
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		return left.Equal(right, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: (AB)ᵀ == Bᵀ Aᵀ.
func TestPropertyMatMulTransposeRule(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := rng.Intn(6)+1, rng.Intn(6)+1, rng.Intn(6)+1
		a := RandNormal(rng, 0, 1, m, k)
		b := RandNormal(rng, 0, 1, k, n)
		left := Transpose(MatMul(a, b))
		right := MatMul(Transpose(b), Transpose(a))
		return left.Equal(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// The reference kernels: the naive loops the tiled kernels replaced,
// kept here only. One output element is one sum, taken in ascending
// inner index; a·b and aᵀ·b skip a zero a (so it contributes nothing,
// not 0·Inf), a·bᵀ does not; the bias goes on last.

func refMatMul(dd, ad, bd []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		drow := dd[i*n : (i+1)*n]
		clear(drow)
		for p := 0; p < k; p++ {
			av := ad[i*k+p]
			if av == 0 {
				continue
			}
			for j, bv := range bd[p*n : (p+1)*n] {
				drow[j] += av * bv
			}
		}
	}
}

func refMatMulTransA(dd, ad, bd []float64, m, k, n int, acc bool) {
	for i := 0; i < m; i++ {
		drow := dd[i*n : (i+1)*n]
		if !acc {
			clear(drow)
		}
		for p := 0; p < k; p++ {
			av := ad[p*m+i]
			if av == 0 {
				continue
			}
			for j, bv := range bd[p*n : (p+1)*n] {
				drow[j] += av * bv
			}
		}
	}
}

func refMatMulTransB(dd, ad, bd, bias []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += ad[i*k+p] * bd[j*k+p]
			}
			if bias != nil {
				s += bias[j]
			}
			dd[i*n+j] = s
		}
	}
}

// kernelForms runs every into form and its reference on operands
// a (m×k as the form reads it), b, bias and a starting dst, and returns
// got/want pairs by name. The accumulate form starts both sides from
// the same dst; the others must overwrite whatever dst held.
func kernelForms(m, k, n int, a, b, bias, start []float64) map[string][2][]float64 {
	at := Transpose(FromSlice(a, m, k)).data // k×m, for the aᵀ·b forms
	bt := Transpose(FromSlice(b, k, n)).data // n×k, for the a·bᵀ forms
	out := map[string][2][]float64{}
	run := func(name string, kernel func(dst *Tensor), ref func(dd []float64)) {
		got, want := FromSlice(append([]float64(nil), start...), m, n), append([]float64(nil), start...)
		kernel(got)
		ref(want)
		out[name] = [2][]float64{got.data, want}
	}
	A, AT, B, BT, Bias := FromSlice(a, m, k), FromSlice(at, k, m), FromSlice(b, k, n), FromSlice(bt, n, k), FromSlice(bias, n)
	run("MatMulInto", func(d *Tensor) { MatMulInto(d, A, B) }, func(dd []float64) { refMatMul(dd, a, b, m, k, n) })
	run("MatMulTransAInto", func(d *Tensor) { MatMulTransAInto(d, AT, B) }, func(dd []float64) { refMatMulTransA(dd, at, b, m, k, n, false) })
	run("MatMulTransAAccInto", func(d *Tensor) { MatMulTransAAccInto(d, AT, B) }, func(dd []float64) { refMatMulTransA(dd, at, b, m, k, n, true) })
	run("MatMulTransBInto", func(d *Tensor) { MatMulTransBInto(d, A, BT) }, func(dd []float64) { refMatMulTransB(dd, a, bt, nil, m, k, n) })
	run("MatMulTransBBiasInto", func(d *Tensor) { MatMulTransBBiasInto(d, A, BT, Bias) }, func(dd []float64) { refMatMulTransB(dd, a, bt, bias, m, k, n) })
	return out
}

func checkKernelBits(t *testing.T, label string, forms map[string][2][]float64) {
	t.Helper()
	for name, gw := range forms {
		for i, g := range gw[0] {
			if w := gw[1][i]; math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("%s %s: element %d = %v (%#x), reference %v (%#x)",
					label, name, i, g, math.Float64bits(g), w, math.Float64bits(w))
				break
			}
		}
	}
}

// The tiled kernels must give the reference loops' bits, element for
// element, on shapes that hit every tile remainder (1–3 leftover
// columns or inner indices) and the blockK seam (k = 257, 513), with
// half of a exactly zero — what a gradient looks like after a ReLU.
func TestKernelsMatchReferenceBits(t *testing.T) {
	dims := []int{1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 257, 513}
	rng := rand.New(rand.NewSource(21))
	// Every value appears in every position at least once; the other
	// two positions are drawn at random, redrawn while the product is
	// too large to keep the suite (and its -race run) quick.
	var shapes [][3]int
	for pos := 0; pos < 3; pos++ {
		for _, d := range dims {
			s := [3]int{}
			for {
				for q := range s {
					s[q] = dims[rng.Intn(len(dims))]
				}
				s[pos] = d
				if s[0]*s[1]*s[2] <= 1<<22 {
					break
				}
			}
			shapes = append(shapes, s)
		}
	}
	shapes = append(shapes, [3]int{65, 513, 9}, [3]int{9, 257, 65}) // the seam, whatever the draw
	fill := func(n int, zeros float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			if rng.Float64() >= zeros {
				v[i] = rng.NormFloat64()
			}
		}
		return v
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a, b, bias, start := fill(m*k, 0.5), fill(k*n, 0), fill(n, 0), fill(m*n, 0)
		checkKernelBits(t, fmt.Sprintf("%dx%dx%d", m, k, n), kernelForms(m, k, n, a, b, bias, start))
	}
}

// The zero skip is observable and pinned: a zero in a meets ±Inf and
// NaN in b without poisoning the sum in a·b and aᵀ·b (and does poison
// it in a·bᵀ, which never skipped); a −0 already in dst survives an
// accumulate whose every contribution is skipped, where adding the
// skipped +0 products would turn it into +0.
func TestKernelsZeroSkipBits(t *testing.T) {
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	const m, k, n = 3, 9, 6 // k covers two full groups of four and a remainder
	rng := rand.New(rand.NewSource(22))
	a, b, bias, start := make([]float64, m*k), make([]float64, k*n), make([]float64, n), make([]float64, m*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	// Row 0 of a: zeros (of both signs) exactly where b is not finite,
	// one per position within a group of four, and in the remainder.
	for _, z := range []struct {
		p       int
		a, brow float64
	}{{0, 0, inf}, {2, 0, nan}, {5, negZero, -inf}, {7, 0, nan}, {8, 0, inf}} {
		a[z.p] = z.a
		for j := 0; j < n; j++ {
			b[z.p*n+j] = z.brow
		}
	}
	// Row 1 of a is all zero and its dst row starts at −0: the
	// accumulate form must leave −0, the overwriting forms give +0.
	for p := 0; p < k; p++ {
		a[k+p] = 0
	}
	for j := 0; j < n; j++ {
		start[n+j] = negZero
	}
	forms := kernelForms(m, k, n, a, b, bias, start)
	checkKernelBits(t, "zero skip", forms)
	for _, name := range []string{"MatMulInto", "MatMulTransAInto", "MatMulTransAAccInto"} {
		for j, v := range forms[name][0][:n] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: row 0 element %d = %v; a skipped zero let a non-finite b through", name, j, v)
			}
		}
	}
	if v := forms["MatMulTransBInto"][0][0]; !math.IsNaN(v) {
		t.Errorf("MatMulTransBInto: 0·Inf summed to %v, want NaN (this form never skipped zeros)", v)
	}
	if v := forms["MatMulTransAAccInto"][0][n]; !math.Signbit(v) || v != 0 {
		t.Errorf("MatMulTransAAccInto: −0 in dst became %v (signbit %v)", v, math.Signbit(v))
	}
	if v := forms["MatMulTransAInto"][0][n]; math.Signbit(v) || v != 0 {
		t.Errorf("MatMulTransAInto: all-zero row gave %v (signbit %v), want +0", v, math.Signbit(v))
	}
}

// The kernels allocate nothing: shape checks format only when they
// fail, and tile helpers take slices and pointers to stack arrays.
func TestKernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, s := range [][3]int{{64, 32, 32}, {13, 261, 7}} { // tile-aligned; ragged and across the blockK seam
		m, k, n := s[0], s[1], s[2]
		a, at := RandNormal(rng, 0, 1, m, k), RandNormal(rng, 0, 1, k, m)
		b, bt := RandNormal(rng, 0, 1, k, n), RandNormal(rng, 0, 1, n, k)
		bias, dst := RandNormal(rng, 0, 1, n), New(m, n)
		for name, fn := range map[string]func(){
			"MatMulInto":           func() { MatMulInto(dst, a, b) },
			"MatMulTransAInto":     func() { MatMulTransAInto(dst, at, b) },
			"MatMulTransAAccInto":  func() { MatMulTransAAccInto(dst, at, b) },
			"MatMulTransBInto":     func() { MatMulTransBInto(dst, a, bt) },
			"MatMulTransBBiasInto": func() { MatMulTransBBiasInto(dst, a, bt, bias) },
		} {
			if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
				t.Errorf("%s %dx%dx%d: %v allocs per call, want 0", name, m, k, n, allocs)
			}
		}
	}
}
