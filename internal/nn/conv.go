package nn

import (
	"fmt"
	"math/rand"

	"hadfl/internal/tensor"
)

// convTileRows is the im2col row budget of one Conv2D tile: Forward and
// Backward walk the batch in tiles of whole images, as many as fit in
// this many rows (at least one) — 4 images at 8×8 outputs, 16 at 4×4.
const convTileRows = 256

// Conv2D is a 2-D convolution layer over [N, C, H, W] inputs with square
// kernels, implemented via im2col + matmul over tiles of whole images.
//
// Only training keeps a batch-sized matrix: each tile's im2col rows land
// in cols, which Backward needs for dW. An inference pass im2cols each
// tile into a tile-sized buffer, and Backward forms the gradient rows,
// g·W and the col2im of one tile at a time, so the product and gradient
// scratch is one tile whatever the batch. The tile buffers are sized by
// the layer's geometry, not the batch, so steady-state steps allocate
// nothing even as training and scoring batches alternate.
//
// Tiling moves no bit. Forward rows are independent dot products; dW
// and dB take their terms in ascending row order across tiles, as the
// whole-batch products do (axpy4 groups left to right, so where a group
// ends is irrelevant, and zero gradients are skipped the same way); and
// a tile's col2im touches only that tile's images.
type Conv2D struct {
	W, B        *tensor.Tensor // W: [OC, C, K, K], B: [OC]
	dW, dB      *tensor.Tensor
	Stride, Pad int

	tileRows int            // im2col rows per tile; 0 means convTileRows
	cols     *tensor.Tensor // im2col of the training input, [N·OH·OW, C·K·K]
	inShape  []int          // training input shape; empty once Backward used it
	// Persistent views/buffers.
	wmat, dwmat *tensor.Tensor // matrix views of W / dW
	mat         *tensor.Tensor // one tile's product or gradient, [rows, OC]
	tile        *tensor.Tensor // one tile's inference im2col or g·W, [rows, C·K·K]
	out, dx     *tensor.Tensor
	view        struct{ in, out, cols, mat, tile *tensor.Tensor } // re-pointed per tile
}

// NewConv2D constructs a Conv2D with He-normal initialization.
func NewConv2D(rng *rand.Rand, inCh, outCh, kernel, stride, pad int) *Conv2D {
	fanIn := inCh * kernel * kernel
	return &Conv2D{
		W:      tensor.HeNormal(rng, fanIn, outCh, inCh, kernel, kernel),
		B:      tensor.New(outCh),
		dW:     tensor.New(outCh, inCh, kernel, kernel),
		dB:     tensor.New(outCh),
		Stride: stride,
		Pad:    pad,
	}
}

// tiles sizes the tile buffers for an output plane of the given size
// and returns the images per tile.
func (c *Conv2D) tiles(plane int) int {
	budget := c.tileRows
	if budget == 0 {
		budget = convTileRows
	}
	step := max(1, budget/plane)
	oc := c.W.Dim(0)
	c.wmat = tensor.AsShape(c.wmat, c.W, oc, c.W.Len()/oc) // [OC, C·K·K]
	c.mat = tensor.Ensure(c.mat, step*plane, oc)
	c.tile = tensor.Ensure(c.tile, step*plane, c.W.Len()/oc)
	return step
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 4 || x.Dim(1) != c.W.Dim(1) {
		panic(fmt.Sprintf("nn: Conv2D input %v, want [N %d H W]", x.Shape(), c.W.Dim(1)))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	k := c.W.Dim(2)
	oc := c.W.Dim(0)
	oh := tensor.Conv2DShape(h, k, c.Stride, c.Pad)
	ow := tensor.Conv2DShape(w, k, c.Stride, c.Pad)
	plane := oh * ow
	step := c.tiles(plane)
	if train {
		c.inShape = append(c.inShape[:0], x.Shape()...)
		c.cols = tensor.Ensure(c.cols, n*plane, c.W.Len()/oc)
	}
	c.out = tensor.Ensure(c.out, n, oc, oh, ow)
	v := &c.view
	for lo := 0; lo < n; lo += step {
		hi := min(lo+step, n)
		rows := (hi - lo) * plane
		if train {
			v.cols = tensor.SliceRows(v.cols, c.cols, lo*plane, hi*plane)
		} else {
			v.cols = tensor.SliceRows(v.cols, c.tile, 0, rows)
		}
		v.in = tensor.SliceRows(v.in, x, lo, hi)
		tensor.Im2ColInto(v.cols, v.in, k, k, c.Stride, c.Pad)
		v.mat = tensor.SliceRows(v.mat, c.mat, 0, rows)
		tensor.MatMulTransBBiasInto(v.mat, v.cols, c.wmat, c.B)
		v.out = tensor.SliceRows(v.out, c.out, lo, hi)
		channelsLastToFirstInto(v.out, v.mat, hi-lo, oc, oh, ow)
	}
	return c.out
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if len(c.inShape) == 0 {
		panic("nn: Conv2D.Backward before Forward(train=true)")
	}
	n, oc, oh, ow := grad.Dim(0), grad.Dim(1), grad.Dim(2), grad.Dim(3)
	plane := oh * ow
	step := c.tiles(plane)
	k := c.W.Dim(2)
	c.dwmat = tensor.AsShape(c.dwmat, c.dW, oc, c.dW.Len()/oc)
	c.dx = tensor.Ensure(c.dx, c.inShape...)
	v := &c.view
	for lo := 0; lo < n; lo += step {
		hi := min(lo+step, n)
		rows := (hi - lo) * plane
		// g = this tile's gradient as [rows, OC]; dW += gᵀ·cols;
		// dB += column sums of g; dx = Col2Im(g·Wmat).
		v.in = tensor.SliceRows(v.in, grad, lo, hi)
		v.mat = tensor.SliceRows(v.mat, c.mat, 0, rows)
		channelsFirstToLastInto(v.mat, v.in)
		v.cols = tensor.SliceRows(v.cols, c.cols, lo*plane, hi*plane)
		tensor.MatMulTransAAccInto(c.dwmat, v.mat, v.cols)
		tensor.SumRowsAccInto(c.dB, v.mat)
		v.tile = tensor.SliceRows(v.tile, c.tile, 0, rows)
		tensor.MatMulInto(v.tile, v.mat, c.wmat)
		v.out = tensor.SliceRows(v.out, c.dx, lo, hi)
		tensor.Col2ImInto(v.out, v.tile, k, k, c.Stride, c.Pad)
	}
	c.inShape = c.inShape[:0]
	return c.dx
}

// Params implements Layer.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.W, c.B} }

// Grads implements Layer.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.dW, c.dB} }

// channelsLastToFirstInto converts a [N·OH·OW, OC] matrix into an
// [N, OC, OH, OW] tensor.
func channelsLastToFirstInto(out, m *tensor.Tensor, n, oc, oh, ow int) {
	md, od := m.Data(), out.Data()
	plane := oh * ow
	for ni := 0; ni < n; ni++ {
		for p := 0; p < plane; p++ {
			row := (ni*plane + p) * oc
			for ci := 0; ci < oc; ci++ {
				od[(ni*oc+ci)*plane+p] = md[row+ci]
			}
		}
	}
}

// channelsFirstToLastInto converts [N, OC, OH, OW] into [N·OH·OW, OC].
func channelsFirstToLastInto(out, t *tensor.Tensor) {
	n, oc, oh, ow := t.Dim(0), t.Dim(1), t.Dim(2), t.Dim(3)
	plane := oh * ow
	td, od := t.Data(), out.Data()
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < oc; ci++ {
			base := (ni*oc + ci) * plane
			for p := 0; p < plane; p++ {
				od[(ni*plane+p)*oc+ci] = td[base+p]
			}
		}
	}
}

// MaxPool is a max-pooling layer with a square window.
type MaxPool struct {
	Window, Stride int
	arg            []int
	inShape        []int
	out, dx        *tensor.Tensor
}

// NewMaxPool returns a max-pooling layer.
func NewMaxPool(window, stride int) *MaxPool { return &MaxPool{Window: window, Stride: stride} }

// Forward implements Layer.
func (p *MaxPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("nn: MaxPool input %v, want [N C H W]", x.Shape()))
	}
	n, c := x.Dim(0), x.Dim(1)
	oh := tensor.Conv2DShape(x.Dim(2), p.Window, p.Stride, 0)
	ow := tensor.Conv2DShape(x.Dim(3), p.Window, p.Stride, 0)
	p.out = tensor.Ensure(p.out, n, c, oh, ow)
	if cap(p.arg) < p.out.Len() {
		p.arg = make([]int, p.out.Len())
	}
	p.arg = p.arg[:p.out.Len()]
	tensor.MaxPool2DInto(p.out, p.arg, x, p.Window, p.Stride)
	if train {
		p.inShape = append(p.inShape[:0], x.Shape()...)
	}
	return p.out
}

// Backward implements Layer.
func (p *MaxPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	p.dx = tensor.Ensure(p.dx, p.inShape...)
	tensor.MaxUnpool2DInto(p.dx, grad, p.arg)
	return p.dx
}

// Params implements Layer.
func (p *MaxPool) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (p *MaxPool) Grads() []*tensor.Tensor { return nil }

// GlobalAvgPool averages each channel plane, producing [N, C] from
// [N, C, H, W].
type GlobalAvgPool struct {
	h, w    int
	out, dx *tensor.Tensor
}

// NewGlobalAvgPool returns a global average pooling layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Forward implements Layer.
func (p *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		p.h, p.w = x.Dim(2), x.Dim(3)
	}
	p.out = tensor.Ensure(p.out, x.Dim(0), x.Dim(1))
	tensor.AvgPoolGlobalInto(p.out, x)
	return p.out
}

// Backward implements Layer.
func (p *GlobalAvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	p.dx = tensor.Ensure(p.dx, grad.Dim(0), grad.Dim(1), p.h, p.w)
	tensor.AvgUnpoolGlobalInto(p.dx, grad)
	return p.dx
}

// Params implements Layer.
func (p *GlobalAvgPool) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (p *GlobalAvgPool) Grads() []*tensor.Tensor { return nil }
