package hadfl

import (
	"math"
	"testing"

	"hadfl/internal/tensor"
)

// The determinism contract behind Canonical/Fingerprint excluding
// Parallelism: for a fixed seed, the concurrent runner (devices
// training concurrently inside a round) and the evaluator's scoring
// replicas must produce byte-identical final parameters and training
// curves at every parallelism level, for every scheme: (1
// device at a time, 1 scoring replica) against (2, 2) and (4, 4).
// make test-race runs this under the race detector, which also
// exercises the concurrent phase for data races.
func TestParallelDeterminism(t *testing.T) {
	prevKernel := tensor.Parallelism()
	defer tensor.SetParallelism(prevKernel)

	base := Options{Powers: []float64{4, 2, 2, 1}, TargetEpochs: 3, Seed: 7}
	run := func(t *testing.T, scheme string, par int) *Result {
		t.Helper()
		opts := base
		opts.Parallelism = par
		tensor.SetParallelism(par)
		defer tensor.SetParallelism(1)
		res, err := RunScheme(scheme, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, scheme := range Schemes() {
		t.Run(scheme, func(t *testing.T) {
			seq := run(t, scheme, 1)
			// 2 devices and 2 scoring replicas is what the reference
			// host runs by default; 4 and 4 oversubscribes it.
			for _, p := range []int{2, 4} {
				par := run(t, scheme, p)
				if len(seq.FinalParams) != len(par.FinalParams) {
					t.Fatalf("parallelism %d: FinalParams lengths differ: %d vs %d", p, len(seq.FinalParams), len(par.FinalParams))
				}
				for i, v := range seq.FinalParams {
					if math.Float64bits(v) != math.Float64bits(par.FinalParams[i]) {
						t.Fatalf("parallelism %d: FinalParams[%d] differs: seq %v vs par %v", p, i, v, par.FinalParams[i])
					}
				}
				if seq.Rounds != par.Rounds {
					t.Fatalf("parallelism %d: Rounds differ: %d vs %d", p, seq.Rounds, par.Rounds)
				}
				sp, pp := seq.Series.Points, par.Series.Points
				if len(sp) != len(pp) {
					t.Fatalf("parallelism %d: curve lengths differ: %d vs %d", p, len(sp), len(pp))
				}
				for i := range sp {
					if math.Float64bits(sp[i].Epoch) != math.Float64bits(pp[i].Epoch) ||
						math.Float64bits(sp[i].Time) != math.Float64bits(pp[i].Time) ||
						math.Float64bits(sp[i].Loss) != math.Float64bits(pp[i].Loss) ||
						math.Float64bits(sp[i].Accuracy) != math.Float64bits(pp[i].Accuracy) {
						t.Fatalf("parallelism %d: curve point %d differs:\nseq %+v\npar %+v", p, i, sp[i], pp[i])
					}
				}
				if math.Float64bits(seq.Accuracy) != math.Float64bits(par.Accuracy) ||
					math.Float64bits(seq.Time) != math.Float64bits(par.Time) {
					t.Fatalf("parallelism %d: summary differs: seq acc=%v t=%v, par acc=%v t=%v",
						p, seq.Accuracy, seq.Time, par.Accuracy, par.Time)
				}
			}
		})
	}
}
