package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallelism lives above the kernels. Every kernel in this package is
// a plain serial loop on its caller; callers that hold several whole
// models to compute — devices, asyncfl cycles, scoring replicas — run
// them side by side through Concurrently, so n models use n cores and
// no bit depends on how many run at once.

var parallelism atomic.Int64

func init() {
	SetParallelism(runtime.GOMAXPROCS(0))
}

// SetParallelism caps how many scoring replicas one evaluation runs
// side by side (internal/eval); n < 1 is clamped to 1. The default is
// GOMAXPROCS. Results never depend on it. Set it at startup or between
// runs, not while an evaluation is in flight.
func SetParallelism(n int) {
	parallelism.Store(int64(max(n, 1)))
}

// Parallelism returns the scoring-replica cap set by SetParallelism.
func Parallelism() int { return int(parallelism.Load()) }

// Concurrently runs work(0) … work(n-1) side by side — work(0) on the
// caller, the rest on their own goroutines — and returns when all have.
// It is the package's one parallel primitive: callers give each worker
// a whole model to compute (a device, a scoring replica). n ≤ 1 is just
// work(0).
func Concurrently(n int, work func(w int)) {
	if n <= 1 {
		work(0)
		return
	}
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
