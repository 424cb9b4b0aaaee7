package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for an
// even count), or NaN when xs is empty. It sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return quantileSorted(s, 0.5)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantileSorted interpolates linearly between the order statistics of
// an ascending slice.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// minTailBeyond is how many samples must lie beyond a percentile before
// it is reported: below that the figure is set by a handful of outliers
// and does not repeat from run to run.
const minTailBeyond = 10

// tailLadder is the candidate tail percentiles, ascending.
var tailLadder = []float64{75, 90, 95, 99, 99.9}

// errTooFewSamples is returned when even the median has fewer than
// minTailBeyond samples on either side.
var errTooFewSamples = errors.New("fewer than 20 samples: no percentile is supported")

// supportedTail returns the highest percentile of tailLadder, not above
// nominal, that leaves at least minTailBeyond of n samples beyond it.
// With 20 ≤ n < 40 only the median qualifies and 50 is returned; below
// 20 samples it refuses.
func supportedTail(n int, nominal float64) (float64, error) {
	if n < 2*minTailBeyond {
		return 0, fmt.Errorf("%d samples: %w", n, errTooFewSamples)
	}
	best := 50.0
	for _, p := range tailLadder {
		if p > nominal {
			break
		}
		// The tolerance absorbs the rounding of 100 − 99.9.
		if float64(n)*(100-p)/100 >= minTailBeyond-1e-6 {
			best = p
		}
	}
	return best, nil
}

// latencySummary is a median and the tail percentile the sample
// supports, both in seconds, with the sample count.
type latencySummary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50_s"`
	Tail    float64 `json:"tail_s"`
	TailPct float64 `json:"tail_percentile"`
}

// summarize reports p50 and the highest supported percentile up to
// nominal of the given latencies (seconds).
func summarize(lat []float64, nominal float64) (latencySummary, error) {
	pct, err := supportedTail(len(lat), nominal)
	if err != nil {
		return latencySummary{N: len(lat)}, err
	}
	s := sortedCopy(lat)
	return latencySummary{
		N:       len(s),
		P50:     quantileSorted(s, 0.5),
		Tail:    quantileSorted(s, pct/100),
		TailPct: pct,
	}, nil
}
