package hadfl

import (
	"runtime"
	"testing"

	"hadfl/internal/tensor"
)

// runAllocBudget pins the whole-run allocation ceiling with one device
// and one scoring replica at a time. A complete run — cluster
// construction, warm-up, training rounds, per-round evaluation — must
// stay under this many heap allocations for every scheme.
// Before the evaluation engine and the parameter-gather plumbing, the
// evaluation path alone cost ~50k allocations per run; the measured
// steady state is now ~1.45k (dominated by cluster construction), so
// this bound holds about 1.5× headroom.
const runAllocBudget = 2200

// concurrentRunAllocBudget is the ceiling with four devices training
// side by side and up to four scoring replicas per evaluation. On top
// of the serial path a run spends Train's and the evaluator's join
// bookkeeping and builds the extra replicas: measured ~1.78k (~2.1k for
// distributed, which joins every iteration), so this bound also holds
// about 1.5× headroom.
const concurrentRunAllocBudget = 3200

// TestRunAllocationBudget runs every scheme twice (the
// first run warms package-level state) and asserts the second stays
// under the budget, at parallelism 1 and at a fixed width of 4, so the
// count does not depend on the host's core count.
func TestRunAllocationBudget(t *testing.T) {
	prev := tensor.Parallelism()
	defer tensor.SetParallelism(prev)

	for _, tc := range []struct {
		prefix      string
		parallelism int
		budget      uint64
	}{
		{"", 1, runAllocBudget},
		{"concurrent/", 4, concurrentRunAllocBudget},
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
