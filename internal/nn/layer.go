// Package nn implements the neural-network training substrate HADFL runs
// on: layers with explicit forward/backward passes, a softmax
// cross-entropy loss, an SGD optimizer with momentum, and a small model
// zoo (MLP, VGGTiny, ResNetTiny) standing in for the paper's VGG-16 and
// ResNet-18.
//
// Layers cache whatever they need during Forward so the subsequent
// Backward call can produce input and parameter gradients. A Layer is
// therefore stateful and not safe for concurrent use; each simulated
// device owns its own model replica.
//
// Every layer keeps persistent activation and gradient buffers, resized
// lazily via tensor.Ensure (Conv2D's matrix scratch holds one tile of
// images, not the batch), and routes its linear algebra through the
// in-place kernels of internal/tensor, so a steady-state training step
// — forward, loss, backward, optimizer update at a fixed batch shape —
// performs zero heap allocations after the first step warms the
// buffers up (see alloc_test.go for the enforced guarantee). Two
// aliasing rules keep the buffer reuse sound: a layer may read its
// cached input during Backward (upstream buffers are only rewritten by
// the *next* Forward), and Backward must never mutate the incoming
// gradient in place — it writes to the layer's own output-gradient
// buffer.
package nn

import (
	"fmt"
	"math/rand"

	"hadfl/internal/tensor"
)

// Layer is one differentiable stage of a network.
type Layer interface {
	// Forward computes the layer output for input x. When train is true
	// the layer caches intermediates for Backward and updates any
	// training-time statistics (e.g. batch-norm running averages).
	// The returned tensor is a buffer owned by the layer, valid until
	// its next Forward call.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward receives ∂L/∂output and returns ∂L/∂input, accumulating
	// parameter gradients internally. It must be called after a Forward
	// with train=true. It must not modify grad; the returned tensor is
	// a buffer owned by the layer, valid until its next Backward call.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's learnable tensors (possibly empty).
	Params() []*tensor.Tensor
	// Grads returns gradient tensors aligned with Params.
	Grads() []*tensor.Tensor
}

// Dense is a fully connected layer: y = x·Wᵀ + b, with x of shape
// [batch, in] and W of shape [out, in].
type Dense struct {
	W, B   *tensor.Tensor
	dW, dB *tensor.Tensor
	x      *tensor.Tensor // cached input
	y, dx  *tensor.Tensor // persistent output / input-gradient buffers
}

// NewDense constructs a Dense layer with He-normal weight initialization.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	return &Dense{
		W:  tensor.HeNormal(rng, in, out, in),
		B:  tensor.New(out),
		dW: tensor.New(out, in),
		dB: tensor.New(out),
	}
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 2 || x.Dim(1) != d.W.Dim(1) {
		panic(fmt.Sprintf("nn: Dense input %v, want [batch %d]", x.Shape(), d.W.Dim(1)))
	}
	if train {
		d.x = x
	}
	d.y = tensor.Ensure(d.y, x.Dim(0), d.W.Dim(0))
	tensor.MatMulTransBBiasInto(d.y, x, d.W, d.B)
	return d.y
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.x == nil {
		panic("nn: Dense.Backward before Forward(train=true)")
	}
	// dW += gradᵀ·x ; dB += Σ_batch grad ; dx = grad·W
	tensor.MatMulTransAAccInto(d.dW, grad, d.x)
	tensor.SumRowsAccInto(d.dB, grad)
	d.dx = tensor.Ensure(d.dx, d.x.Dim(0), d.W.Dim(1))
	tensor.MatMulInto(d.dx, grad, d.W)
	return d.dx
}

// Params implements Layer.
func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.W, d.B} }

// Grads implements Layer.
func (d *Dense) Grads() []*tensor.Tensor { return []*tensor.Tensor{d.dW, d.dB} }

// ReLU applies max(0, x) element-wise.
type ReLU struct {
	mask    []bool
	out, dx *tensor.Tensor
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.out = tensor.Ensure(r.out, x.Shape()...)
	if train {
		if cap(r.mask) < x.Len() {
			r.mask = make([]bool, x.Len())
		}
		r.mask = r.mask[:x.Len()]
	}
	xd, od := x.Data(), r.out.Data()
	for i, v := range xd {
		if v < 0 {
			od[i] = 0
			if train {
				r.mask[i] = false
			}
		} else {
			od[i] = v
			if train {
				r.mask[i] = true
			}
		}
	}
	return r.out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	r.dx = tensor.Ensure(r.dx, grad.Shape()...)
	gd, od := grad.Data(), r.dx.Data()
	for i, v := range gd {
		if r.mask[i] {
			od[i] = v
		} else {
			od[i] = 0
		}
	}
	return r.dx
}

// Params implements Layer.
func (r *ReLU) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (r *ReLU) Grads() []*tensor.Tensor { return nil }

// Flatten reshapes [N, ...] to [N, rest] for the transition from
// convolutional to dense stages.
type Flatten struct {
	inShape []int
	view    *tensor.Tensor // cached forward view (aliases the input)
	gview   *tensor.Tensor // cached backward view (aliases the gradient)
}

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		f.inShape = append(f.inShape[:0], x.Shape()...)
	}
	n := x.Dim(0)
	f.view = tensor.AsShape(f.view, x, n, x.Len()/n)
	return f.view
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	f.gview = tensor.AsShape(f.gview, grad, f.inShape...)
	return f.gview
}

// Params implements Layer.
func (f *Flatten) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (f *Flatten) Grads() []*tensor.Tensor { return nil }
