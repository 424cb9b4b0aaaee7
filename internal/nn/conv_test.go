package nn

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"hadfl/internal/tensor"
)

// refConv is the whole-batch im2col convolution: one [N·OH·OW, C·K·K]
// matrix for the batch, one product, one gradient matrix. It is the
// reference the tiled Conv2D must reproduce bit for bit.
type refConv struct {
	w, b, dW, dB *tensor.Tensor
	stride, pad  int
	cols         *tensor.Tensor
	inShape      []int
}

func (r *refConv) forward(x *tensor.Tensor) *tensor.Tensor {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	k, oc := r.w.Dim(2), r.w.Dim(0)
	oh := tensor.Conv2DShape(h, k, r.stride, r.pad)
	ow := tensor.Conv2DShape(w, k, r.stride, r.pad)
	r.cols = tensor.New(n*oh*ow, r.w.Len()/oc)
	tensor.Im2ColInto(r.cols, x, k, k, r.stride, r.pad)
	prod := tensor.New(n*oh*ow, oc)
	tensor.MatMulTransBBiasInto(prod, r.cols, r.w.Reshape(oc, r.w.Len()/oc), r.b)
	r.inShape = x.Shape()
	out := tensor.New(n, oc, oh, ow)
	channelsLastToFirstInto(out, prod, n, oc, oh, ow)
	return out
}

func (r *refConv) backward(grad *tensor.Tensor) *tensor.Tensor {
	n, oc, oh, ow := grad.Dim(0), grad.Dim(1), grad.Dim(2), grad.Dim(3)
	g := tensor.New(n*oh*ow, oc)
	channelsFirstToLastInto(g, grad)
	tensor.MatMulTransAAccInto(r.dW.Reshape(oc, r.dW.Len()/oc), g, r.cols)
	tensor.SumRowsAccInto(r.dB, g)
	dcols := tensor.New(n*oh*ow, r.w.Len()/oc)
	tensor.MatMulInto(dcols, g, r.w.Reshape(oc, r.w.Len()/oc))
	k := r.w.Dim(2)
	dx := tensor.New(r.inShape...)
	tensor.Col2ImInto(dx, dcols, k, k, r.stride, r.pad)
	return dx
}

func sameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape(), want.Shape())
	}
	for i, v := range want.Data() {
		if g := got.Data()[i]; math.Float64bits(g) != math.Float64bits(v) {
			t.Fatalf("%s[%d] = %v (%016x), want %v (%016x)", what, i, g, math.Float64bits(g), v, math.Float64bits(v))
		}
	}
}

// Conv2D must give exactly the whole-batch im2col bits for out, dW, dB
// and dx: every kernel geometry of the model zoo, batches that fill
// tiles exactly, partially and not at all, a gradient with runs of
// exact zeros (the matmul zero skip) and an Inf in the input (a skipped
// 0·Inf stays skipped). dW and dB start nonzero, since a model
// accumulates into them. The bits may not depend on the tile budget
// either, so each case also runs with one image per tile.
func TestConv2DMatchesWholeBatchIm2Col(t *testing.T) {
	const inCh, outCh, side = 3, 6, 8
	for _, geo := range []struct{ k, stride, pad int }{{3, 1, 1}, {3, 2, 1}, {1, 2, 0}} {
		for _, n := range []int{1, 5, 33, 200} {
			for _, tileRows := range []int{0, 1} {
				name := fmt.Sprintf("k%d-s%d-p%d/n%d/tile%d", geo.k, geo.stride, geo.pad, n, tileRows)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(n*10 + geo.k + geo.stride)))
					c := NewConv2D(rng, inCh, outCh, geo.k, geo.stride, geo.pad)
					c.tileRows = tileRows
					c.B = tensor.RandNormal(rng, 0, 1, outCh)
					c.dW = tensor.RandNormal(rng, 0, 1, c.W.Shape()...)
					c.dB = tensor.RandNormal(rng, 0, 1, outCh)
					ref := &refConv{w: c.W, b: c.B, dW: c.dW.Clone(), dB: c.dB.Clone(), stride: geo.stride, pad: geo.pad}

					x := tensor.RandNormal(rng, 0, 1, n, inCh, side, side)
					x.Data()[len(x.Data())/2] = math.Inf(1)
					want := ref.forward(x)
					sameBits(t, "eval out", c.Forward(x, false), want)
					sameBits(t, "train out", c.Forward(x, true), want)

					grad := tensor.RandNormal(rng, 0, 1, want.Shape()...)
					gd := grad.Data()
					for i := 0; i < len(gd); i += 7 {
						for j := i; j < min(i+3, len(gd)); j++ {
							gd[j] = 0
						}
					}
					wantDx := ref.backward(grad)
					sameBits(t, "dx", c.Backward(grad), wantDx)
					sameBits(t, "dW", c.dW, ref.dW)
					sameBits(t, "dB", c.dB, ref.dB)
				})
			}
		}
	}
}

// The memory bound: an inference pass holds no matrix longer than one
// tile, however large the batch, and training keeps exactly one
// batch-sized matrix, the im2col rows dW needs. Layer outputs (out, dx)
// are batch-shaped by contract and exempt. Every *tensor.Tensor field
// of every Conv2D is checked, so a new batch-sized buffer fails here.
func TestConv2DScratchIsTileBounded(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(9))
	m := NewResNetTiny(rng, 3, 8, 10)
	x := tensor.RandNormal(rng, 0, 1, n, 3, 8, 8)
	check := func(when string, batchSized ...string) {
		t.Helper()
		convs := 0
		var walk func(layers []Layer)
		walk = func(layers []Layer) {
			for _, l := range layers {
				switch l := l.(type) {
				case *Residual:
					walk(l.Body)
					walk(l.Shortcut)
				case *Conv2D:
					convs++
					for name, buf := range tensorFields(l) {
						if buf == nil || buf.Dim(0) <= convTileRows || slices.Contains(batchSized, name) {
							continue
						}
						t.Errorf("%s: Conv2D %d holds %s %v, more than %d rows", when, convs, name, buf.Shape(), convTileRows)
					}
				}
			}
		}
		walk(m.Layers)
		if convs != 8 {
			t.Fatalf("found %d Conv2D layers in ResNetTiny, want 8", convs)
		}
	}
	m.Forward(x, false)
	check("after Forward(train=false)", "out")

	logits := m.Forward(x, true)
	_, grad := SoftmaxCrossEntropy(logits, make([]int, n))
	m.Backward(grad)
	check("after a train step", "out", "dx", "cols")
}

// tensorFields returns c's *tensor.Tensor fields by name, the views
// struct's included, read through reflection so the check above sees
// unexported buffers a future change adds.
func tensorFields(c *Conv2D) map[string]*tensor.Tensor {
	out := map[string]*tensor.Tensor{}
	tt := reflect.TypeOf((*tensor.Tensor)(nil))
	var visit func(prefix string, v reflect.Value)
	visit = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			name := prefix + v.Type().Field(i).Name
			switch {
			case f.Type() == tt:
				out[name] = reflect.NewAt(tt, unsafe.Pointer(f.UnsafeAddr())).Elem().Interface().(*tensor.Tensor)
			case f.Kind() == reflect.Struct:
				visit(name+".", f)
			}
		}
	}
	visit("", reflect.ValueOf(c).Elem())
	return out
}
