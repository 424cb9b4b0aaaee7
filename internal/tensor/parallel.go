package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The kernel worker pool. Blocked kernels shard independent output rows
// (or element chunks) across Parallelism() executors: the calling
// goroutine plus up to Parallelism()-1 pool workers. Because every
// shard owns a disjoint slice of the output and all per-element
// reductions run in a fixed order with fixed chunk boundaries, results
// are bit-identical for every parallelism level — parallelism is a
// throughput knob, never a numerics knob.

// pool is one generation of workers. SetParallelism replaces the whole
// generation; old workers drain outstanding tasks and exit.
type kernelPool struct {
	tasks chan func()
	quit  chan struct{}
}

func (p *kernelPool) worker() {
	for {
		select {
		case f := <-p.tasks:
			f()
		case <-p.quit:
			// Drain what was already submitted, then retire.
			for {
				select {
				case f := <-p.tasks:
					f()
				default:
					return
				}
			}
		}
	}
}

// trySubmit hands f to an idle-capable worker without blocking. A full
// queue (or parallelism 1) returns false and the caller runs the work
// itself, which keeps parallelFor deadlock-free even when kernels nest.
func (p *kernelPool) trySubmit(f func()) bool {
	select {
	case p.tasks <- f:
		return true
	default:
		return false
	}
}

var (
	parallelism atomic.Int64
	activePool  atomic.Pointer[kernelPool]
	parMu       sync.Mutex
	// regions counts the Concurrently calls in flight. While it is
	// non-zero whole models compute side by side and already own the
	// cores, so every kernel runs on its caller alone.
	regions atomic.Int32
)

func init() {
	SetParallelism(runtime.GOMAXPROCS(0))
}

// SetParallelism sets the number of executors the blocked kernels may
// use (the calling goroutine counts as one; n-1 pool workers are kept).
// n < 1 is clamped to 1, which makes every kernel run serially on the
// caller with zero coordination overhead. The default is GOMAXPROCS.
//
// Changing the parallelism never changes results — kernels partition
// independent work and keep all floating-point reduction orders fixed —
// so this is safe to tune per deployment. It must not be called while
// kernels are executing on other goroutines; set it at startup or
// between runs.
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	parMu.Lock()
	defer parMu.Unlock()
	var next *kernelPool
	if n > 1 {
		next = &kernelPool{
			tasks: make(chan func(), 4*n),
			quit:  make(chan struct{}),
		}
		for i := 0; i < n-1; i++ {
			go next.worker()
		}
	}
	prev := activePool.Swap(next)
	parallelism.Store(int64(n))
	if prev != nil {
		close(prev.quit)
	}
}

// Parallelism returns the current kernel executor count.
func Parallelism() int { return int(parallelism.Load()) }

// Concurrently runs work(0) … work(n-1) side by side — work(0) on the
// caller, the rest on their own goroutines — and returns when all have.
// It is the one level of parallelism above the kernels: callers give
// each worker a whole model to compute (a device, a scoring replica),
// and for the duration every kernel in the process takes its serial,
// allocation-free path instead of waking the pool, so n models never
// contend with n·Parallelism() shards for the same cores. Bits do not
// depend on it. A model that computes alone stays outside and shards
// as usual; n ≤ 1 is just work(0).
func Concurrently(n int, work func(w int)) {
	if n <= 1 {
		work(0)
		return
	}
	regions.Add(1)
	defer regions.Add(-1)
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for w := 1; w < n; w++ {
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	work(0)
	wg.Wait()
}

// poolIdle reports whether kernels must run on their caller alone:
// parallelism is off, or models are computing side by side.
func poolIdle() bool {
	return Parallelism() <= 1 || regions.Load() != 0
}

// parallelFor runs fn over [0, n) split into chunks of the given grain.
// Chunk boundaries depend only on n and grain — never on the worker
// count — so any reduction that combines per-chunk partials in chunk
// order is deterministic across parallelism levels. fn shards must
// write disjoint state.
//
// Callers take their closure-free serial path first (runSerial,
// vecSerial), but models may start computing side by side between that
// check and this call. The caller then walks the chunks alone — the
// same chunks, so no bit depends on who won that race.
func parallelFor(n, grain int, fn func(lo, hi int)) {
	if grain < 1 {
		grain = 1
	}
	if n <= grain {
		fn(0, n)
		return
	}
	chunks := (n + grain - 1) / grain
	var next atomic.Int64
	body := func() {
		for {
			c := int(next.Add(1)) - 1
			if c >= chunks {
				return
			}
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
	}
	var wg sync.WaitGroup
	if pool := activePool.Load(); pool != nil && regions.Load() == 0 {
		helpers := Parallelism() - 1
		if helpers > chunks-1 {
			helpers = chunks - 1
		}
		for i := 0; i < helpers; i++ {
			wg.Add(1)
			if !pool.trySubmit(func() { defer wg.Done(); body() }) {
				wg.Done()
				break // pool saturated; the caller picks up the slack
			}
		}
	}
	body()
	wg.Wait()
}

// The pool invariant: every task submitted to the kernel pool is a
// leaf — it never itself submits to the pool and waits. parallelFor
// relies on this: a worker blocked inside a task could otherwise hold
// up inner kernels whose completion that same task is waiting on.
// Engine-level sharding that runs whole forward passes per shard (e.g.
// internal/eval) therefore uses its own bounded goroutines and leaves
// the pool to the kernels. This invariant is machine-checked: the
// poolleaf analyzer (internal/lint, `make lint`) rejects any func
// literal passed to parallelFor that reaches parallelFor again.

// rowGrain sizes a row chunk so each task carries roughly targetFlops
// of work, bounding scheduling overhead on small matrices.
func rowGrain(rows, flopsPerRow int) int {
	const targetFlops = 1 << 16
	if flopsPerRow <= 0 {
		flopsPerRow = 1
	}
	g := targetFlops / flopsPerRow
	if g < 1 {
		g = 1
	}
	if g > rows {
		g = rows
	}
	return g
}

// runSerial reports whether a kernel with the given total flop count
// should run on the caller alone: parallelism is off, models are
// computing side by side (Concurrently), or the work is too small to be
// worth sharding. Kernels check this *before* building
// their dispatch closure so the serial path allocates nothing.
func runSerial(totalFlops int) bool {
	const minParFlops = 1 << 15
	return poolIdle() || totalFlops < minParFlops
}
