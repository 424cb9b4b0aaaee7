package tensor

// Ensure returns t when it already holds exactly the given shape, the
// usual steady-state case for per-layer activation and gradient
// buffers; otherwise it returns a fresh tensor. Contents are undefined
// after a reallocation, so callers must fully overwrite the buffer.
func Ensure(t *Tensor, shape ...int) *Tensor {
	n := checkShape(shape)
	if t == nil || len(t.data) != n {
		return New(shape...)
	}
	if len(t.shape) == len(shape) {
		same := true
		for i, d := range shape {
			if t.shape[i] != d {
				same = false
				break
			}
		}
		if same {
			return t
		}
	}
	t.shape = append(t.shape[:0], shape...)
	return t
}

// EnsureZeroed is Ensure followed by a Zero, for buffers that are
// accumulated into (scatter targets, gradient sums).
func EnsureZeroed(t *Tensor, shape ...int) *Tensor {
	t = Ensure(t, shape...)
	t.Zero()
	return t
}

// mustShape panics unless t has exactly the given shape. Like
// checkShape it formats errors without fmt, so variadic call sites do
// not heap-allocate their shape arguments.
func mustShape(op string, t *Tensor, shape ...int) {
	bad := len(t.shape) != len(shape)
	if !bad {
		for i, d := range shape {
			if t.shape[i] != d {
				bad = true
				break
			}
		}
	}
	if bad {
		panic("tensor: " + op + " shape " + shapeStr(t.shape) + ", want " + shapeStr(shape))
	}
}
