package tensor

import "fmt"

// Conv2DShape returns the output spatial size of a 2-D convolution with the
// given input size, kernel size, stride and symmetric zero padding. It
// panics if the configuration yields a non-positive output size.
func Conv2DShape(in, kernel, stride, pad int) int {
	out := (in+2*pad-kernel)/stride + 1
	if out <= 0 {
		panic(fmt.Sprintf("tensor: conv output size %d for in=%d kernel=%d stride=%d pad=%d", out, in, kernel, stride, pad))
	}
	return out
}

// Im2Col unrolls the input image batch x with shape [N, C, H, W] into a
// matrix of shape [N·OH·OW, C·KH·KW] so convolution becomes one MatMul.
// Zero padding of pad pixels is applied on all sides.
func Im2Col(x *Tensor, kh, kw, stride, pad int) *Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("tensor: Im2Col needs [N C H W], got %v", x.shape))
	}
	n, c := x.shape[0], x.shape[1]
	oh := Conv2DShape(x.shape[2], kh, stride, pad)
	ow := Conv2DShape(x.shape[3], kw, stride, pad)
	cols := New(n*oh*ow, c*kh*kw)
	Im2ColInto(cols, x, kh, kw, stride, pad)
	return cols
}

// Im2ColInto is Im2Col reusing cols' storage ([N·OH·OW, C·KH·KW]).
func Im2ColInto(cols *Tensor, x *Tensor, kh, kw, stride, pad int) {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("tensor: Im2Col needs [N C H W], got %v", x.shape))
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh := Conv2DShape(h, kh, stride, pad)
	ow := Conv2DShape(w, kw, stride, pad)
	rowLen := c * kh * kw
	mustShape("Im2ColInto cols", cols, n*oh*ow, rowLen)
	xd, cd := x.data, cols.data
	if pad > 0 {
		// Padding positions are skipped below and must read as zero.
		clear(cd)
	}
	for ni := 0; ni < n; ni++ {
		imgBase := ni * c * h * w
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*stride - pad
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*stride - pad
				row := ((ni*oh+oy)*ow + ox) * rowLen
				for ci := 0; ci < c; ci++ {
					chBase := imgBase + ci*h*w
					colBase := row + ci*kh*kw
					for ky := 0; ky < kh; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= h {
							continue // stays zero
						}
						rowBase := chBase + iy*w
						dst := colBase + ky*kw
						for kx := 0; kx < kw; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= w {
								continue
							}
							cd[dst+kx] = xd[rowBase+ix]
						}
					}
				}
			}
		}
	}
}

// Col2Im is the adjoint of Im2Col: it scatters (accumulates) the column
// matrix back into an image batch of shape [N, C, H, W]. It is used to
// back-propagate gradients through the im2col transform.
func Col2Im(cols *Tensor, n, c, h, w, kh, kw, stride, pad int) *Tensor {
	img := New(n, c, h, w)
	Col2ImInto(img, cols, kh, kw, stride, pad)
	return img
}

// Col2ImInto is Col2Im scattering into img's storage (zeroed first).
func Col2ImInto(img *Tensor, cols *Tensor, kh, kw, stride, pad int) {
	if img.Dims() != 4 {
		panic(fmt.Sprintf("tensor: Col2ImInto needs [N C H W] dst, got %v", img.shape))
	}
	n, c, h, w := img.shape[0], img.shape[1], img.shape[2], img.shape[3]
	oh := Conv2DShape(h, kh, stride, pad)
	ow := Conv2DShape(w, kw, stride, pad)
	rowLen := c * kh * kw
	if cols.Dims() != 2 || cols.shape[0] != n*oh*ow || cols.shape[1] != rowLen {
		panic(fmt.Sprintf("tensor: Col2Im cols shape %v, want [%d %d]", cols.shape, n*oh*ow, rowLen))
	}
	xd, cd := img.data, cols.data
	clear(xd)
	for ni := 0; ni < n; ni++ {
		imgBase := ni * c * h * w
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*stride - pad
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*stride - pad
				row := ((ni*oh+oy)*ow + ox) * rowLen
				for ci := 0; ci < c; ci++ {
					chBase := imgBase + ci*h*w
					colBase := row + ci*kh*kw
					for ky := 0; ky < kh; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= h {
							continue
						}
						rowBase := chBase + iy*w
						src := colBase + ky*kw
						for kx := 0; kx < kw; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= w {
								continue
							}
							xd[rowBase+ix] += cd[src+kx]
						}
					}
				}
			}
		}
	}
}

// MaxPool2D applies max pooling with a square window and equal stride over
// x [N, C, H, W]. It returns the pooled tensor [N, C, OH, OW] and the flat
// argmax index (into x's data) for each output element, for backprop.
func MaxPool2D(x *Tensor, window, stride int) (*Tensor, []int) {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("tensor: MaxPool2D needs [N C H W], got %v", x.shape))
	}
	n, c := x.shape[0], x.shape[1]
	oh := Conv2DShape(x.shape[2], window, stride, 0)
	ow := Conv2DShape(x.shape[3], window, stride, 0)
	out := New(n, c, oh, ow)
	arg := make([]int, out.Len())
	MaxPool2DInto(out, arg, x, window, stride)
	return out, arg
}

// MaxPool2DInto is MaxPool2D reusing out ([N, C, OH, OW]) and arg
// (len out.Len()).
func MaxPool2DInto(out *Tensor, arg []int, x *Tensor, window, stride int) {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("tensor: MaxPool2D needs [N C H W], got %v", x.shape))
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh := Conv2DShape(h, window, stride, 0)
	ow := Conv2DShape(w, window, stride, 0)
	mustShape("MaxPool2DInto out", out, n, c, oh, ow)
	if len(arg) != out.Len() {
		panic(fmt.Sprintf("tensor: MaxPool2DInto arg len %d, want %d", len(arg), out.Len()))
	}
	xd, od := x.data, out.data
	plane := oh * ow
	for pc := 0; pc < n*c; pc++ {
		chBase := pc * h * w
		oi := pc * plane
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := -1
				bestV := 0.0
				for ky := 0; ky < window; ky++ {
					iy := oy*stride + ky
					for kx := 0; kx < window; kx++ {
						ix := ox*stride + kx
						idx := chBase + iy*w + ix
						if best == -1 || xd[idx] > bestV {
							best, bestV = idx, xd[idx]
						}
					}
				}
				od[oi] = bestV
				arg[oi] = best
				oi++
			}
		}
	}
}

// MaxUnpool2D scatters the pooled gradient grad back to the input shape
// using the argmax indices recorded by MaxPool2D.
func MaxUnpool2D(grad *Tensor, arg []int, inShape []int) *Tensor {
	out := New(inShape...)
	MaxUnpool2DInto(out, grad, arg)
	return out
}

// MaxUnpool2DInto is MaxUnpool2D scattering into dst (zeroed first).
func MaxUnpool2DInto(dst, grad *Tensor, arg []int) {
	if grad.Len() != len(arg) {
		panic(fmt.Sprintf("tensor: MaxUnpool2D grad len %d vs arg len %d", grad.Len(), len(arg)))
	}
	dst.Zero()
	for i, idx := range arg {
		dst.data[idx] += grad.data[i]
	}
}

// AvgPoolGlobal averages each channel plane of x [N, C, H, W], returning
// [N, C]. Used for global average pooling heads.
func AvgPoolGlobal(x *Tensor) *Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("tensor: AvgPoolGlobal needs [N C H W], got %v", x.shape))
	}
	out := New(x.shape[0], x.shape[1])
	AvgPoolGlobalInto(out, x)
	return out
}

// AvgPoolGlobalInto is AvgPoolGlobal reusing out ([N, C]).
func AvgPoolGlobalInto(out, x *Tensor) {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("tensor: AvgPoolGlobal needs [N C H W], got %v", x.shape))
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	mustShape("AvgPoolGlobalInto out", out, n, c)
	plane := h * w
	inv := 1.0 / float64(plane)
	for pc := 0; pc < n*c; pc++ {
		base := pc * plane
		s := 0.0
		for i := 0; i < plane; i++ {
			s += x.data[base+i]
		}
		out.data[pc] = s * inv
	}
}

// AvgUnpoolGlobal spreads the [N, C] gradient evenly back over [N, C, H, W].
func AvgUnpoolGlobal(grad *Tensor, h, w int) *Tensor {
	if grad.Dims() != 2 {
		panic(fmt.Sprintf("tensor: AvgUnpoolGlobal needs [N C], got %v", grad.shape))
	}
	out := New(grad.shape[0], grad.shape[1], h, w)
	AvgUnpoolGlobalInto(out, grad)
	return out
}

// AvgUnpoolGlobalInto is AvgUnpoolGlobal writing into out [N, C, H, W].
func AvgUnpoolGlobalInto(out, grad *Tensor) {
	if grad.Dims() != 2 || out.Dims() != 4 {
		panic(fmt.Sprintf("tensor: AvgUnpoolGlobalInto shapes %v, %v", out.shape, grad.shape))
	}
	n, c, h, w := out.shape[0], out.shape[1], out.shape[2], out.shape[3]
	mustShape("AvgUnpoolGlobalInto grad", grad, n, c)
	plane := h * w
	inv := 1.0 / float64(plane)
	for pc := 0; pc < n*c; pc++ {
		g := grad.data[pc] * inv
		base := pc * plane
		for i := 0; i < plane; i++ {
			out.data[base+i] = g
		}
	}
}
