package main

import (
	"errors"
	"math"
	"testing"
)

func TestSupportedTail(t *testing.T) {
	for _, tc := range []struct {
		n       int
		nominal float64
		want    float64
	}{
		{20, 99, 50},   // ten beyond the median, nine beyond p75 of 39
		{39, 99, 50},   // 39 × 0.25 < 10
		{40, 99, 75},   // exactly ten beyond p75
		{100, 99, 90},  // ten beyond p90
		{199, 99, 90},  // 9.95 beyond p95
		{200, 99, 95},  // ten beyond p95
		{1000, 99, 99}, // ten beyond p99
		{1000, 95, 95}, // never above the nominal percentile
		{100000, 99, 99},
		{10000, 99.9, 99.9},
	} {
		got, err := supportedTail(tc.n, tc.nominal)
		if err != nil || got != tc.want {
			t.Errorf("supportedTail(%d, %v) = %v, %v; want %v", tc.n, tc.nominal, got, err, tc.want)
		}
	}
}

func TestSupportedTailRefusesSmallSamples(t *testing.T) {
	for _, n := range []int{0, 1, 19} {
		if _, err := supportedTail(n, 99); !errors.Is(err, errTooFewSamples) {
			t.Errorf("supportedTail(%d) error = %v, want errTooFewSamples", n, err)
		}
	}
	if _, err := summarize(make([]float64, 19), 99); !errors.Is(err, errTooFewSamples) {
		t.Errorf("summarize of 19 samples: error = %v, want errTooFewSamples", err)
	}
}

func TestSummarize(t *testing.T) {
	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = float64(i + 1) // 1..1000, deliberately unsorted below
	}
	lat[0], lat[999] = lat[999], lat[0]
	s, err := summarize(lat, 99)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 1000 || s.TailPct != 99 {
		t.Errorf("summary = %+v, want n 1000 at p99", s)
	}
	if math.Abs(s.P50-500.5) > 1e-9 || math.Abs(s.Tail-990.01) > 1e-9 {
		t.Errorf("p50 = %v, tail = %v; want 500.5, 990.01", s.P50, s.Tail)
	}
	if lat[0] != 1000 {
		t.Error("summarize sorted its input in place")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of three = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}
