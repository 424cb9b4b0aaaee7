package hadfl

import (
	"runtime"
	"testing"

	"hadfl/internal/tensor"
)

// runAllocBudget pins the whole-run allocation ceiling on the serial
// kernel path. A complete run — cluster construction, warm-up,
// training rounds, per-round evaluation — must stay under this many
// heap allocations for every registered scheme. Before the evaluation
// engine and the parameter-gather plumbing, the evaluation path alone
// cost ~50k allocations per run; the measured steady state is now
// ~1.4k (dominated by cluster construction), so this bound holds
// roughly 3× headroom without tolerating a regression back to
// per-round vector churn.
const runAllocBudget = 5000

// concurrentRunAllocBudget is the ceiling at the parallelism hosts
// really run: devices training side by side over a full-width kernel
// pool. Kernels under concurrent devices never wake the pool, so a run
// spends only Train's and the evaluator's join bookkeeping on top of
// the serial path — measured 1.6k (2.1k for distributed, which joins
// every iteration) against the 13.5k the same runs cost while every
// kernel dispatched to the pool.
const concurrentRunAllocBudget = 4000

// TestRunAllocationBudget runs every registered scheme twice (the
// first run warms package-level state) and asserts the second stays
// under the budget, on the serial path (one device at a time, one
// kernel executor) and on the concurrent one (GOMAXPROCS of each, the
// façade default; at least 2, so a 1-CPU host still takes the path).
func TestRunAllocationBudget(t *testing.T) {
	prev := tensor.Parallelism()
	defer tensor.SetParallelism(prev)

	wide := max(2, runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		prefix      string
		parallelism int
		budget      uint64
	}{
		{"", 1, runAllocBudget},
		{"concurrent/", wide, concurrentRunAllocBudget},
	} {
		tensor.SetParallelism(tc.parallelism)
		opts := Options{Powers: []float64{4, 2, 2, 1}, TargetEpochs: 3, Seed: 7, Parallelism: tc.parallelism}
		for _, scheme := range Schemes() {
			t.Run(tc.prefix+scheme, func(t *testing.T) {
				if _, err := RunScheme(scheme, opts); err != nil {
					t.Fatal(err)
				}
				var m0, m1 runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&m0)
				if _, err := RunScheme(scheme, opts); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&m1)
				if allocs := m1.Mallocs - m0.Mallocs; allocs > tc.budget {
					t.Fatalf("%s run allocated %d times, budget %d", scheme, allocs, tc.budget)
				}
			})
		}
	}
}
