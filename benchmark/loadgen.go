package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clock is the generators' time source; tests substitute a fake one to
// prove the schedule arithmetic without sleeping.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// Sleep blocks in nanosleep(2) rather than time.Sleep: the Go runtime
// rounds sub-millisecond timers up to its poller's millisecond
// granularity, which at a few thousand requests per second would make
// every open-loop request half a millisecond late and the latencies a
// measurement of the generator.
func (realClock) Sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// sample is one generated operation. Due is when it was scheduled to be
// sent (equal to Start in a closed loop), Start when it was actually
// sent, End when its response had been read and checked.
type sample struct {
	Due, Start, End time.Time
	OK              bool
}

// latency is taken from the due time, so the wait a stalled server
// imposes on the requests queued behind it is counted (no coordinated
// omission).
func (s sample) latency() time.Duration { return s.End.Sub(s.Due) }

// lateness is how long after its due time the generator sent the
// operation.
func (s sample) lateness() time.Duration { return s.Start.Sub(s.Due) }

// opFunc performs operation i on behalf of one client and reports
// whether it succeeded (a refusal such as 429 or 503 is a failure).
type opFunc func(client, i int) bool

// closedLoop runs `clients` callers, each sending its next operation as
// soon as the previous one completes, until the window has elapsed or,
// when limit is positive, that many operations have been sent. An
// operation in flight at the deadline is allowed to finish.
func closedLoop(clk clock, clients int, window time.Duration, limit int, op opFunc) []sample {
	start := clk.Now()
	deadline := start.Add(window)
	var next atomic.Int64
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				t0 := clk.Now()
				if !t0.Before(deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit {
					return
				}
				ok := op(c, i)
				per[c] = append(per[c], sample{Due: t0, Start: t0, End: clk.Now(), OK: ok})
			}
		}(c)
	}
	wg.Wait()
	return flatten(per)
}

// openLoop sends operation i at start + i/rate whatever the responses
// do, for every i with a due time inside the window, over at most
// `clients` connections. When all clients are still busy at a due time
// the operation goes out late and its latency, taken from the due time,
// includes that wait.
func openLoop(clk clock, clients int, rate float64, window time.Duration, op opFunc) []sample {
	n := int(rate * window.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	start := clk.Now()
	var next atomic.Int64
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := due.Sub(clk.Now()); wait > 0 {
					clk.Sleep(wait)
				}
				t0 := clk.Now()
				ok := op(c, i)
				per[c] = append(per[c], sample{Due: due, Start: t0, End: clk.Now(), OK: ok})
			}
		}(c)
	}
	wg.Wait()
	return flatten(per)
}

func flatten(per [][]sample) []sample {
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}

// tally is what a load phase did: operations sent, succeeded and
// failed, and the wall time from the first send to the last response.
type tally struct {
	Sent    int           `json:"sent"`
	OK      int           `json:"succeeded"`
	Failed  int           `json:"failed"`
	Elapsed time.Duration `json:"elapsed_ns"`
}

func tallyOf(samples []sample) tally {
	var t tally
	var first, last time.Time
	for i, s := range samples {
		t.Sent++
		if s.OK {
			t.OK++
		} else {
			t.Failed++
		}
		if i == 0 || s.Start.Before(first) {
			first = s.Start
		}
		if s.End.After(last) {
			last = s.End
		}
	}
	t.Elapsed = last.Sub(first)
	return t
}

// goodput is successful operations per second; failures and refusals
// never count as work.
func (t tally) goodput() float64 {
	if t.Elapsed <= 0 {
		return 0
	}
	return float64(t.OK) / t.Elapsed.Seconds()
}

// okLatencies returns the latencies, in seconds, of the successful
// samples.
func okLatencies(samples []sample) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.OK {
			out = append(out, s.latency().Seconds())
		}
	}
	return out
}
