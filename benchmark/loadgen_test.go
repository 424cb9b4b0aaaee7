package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a clock only the test's single client advances: Sleep
// and the operation's service time move it, nothing else does.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.now
	// Ten requests a second for one second; every request takes 10 ms
	// except request 2, on which the server stalls for a full second.
	service := func(i int) time.Duration {
		if i == 2 {
			return time.Second
		}
		return 10 * time.Millisecond
	}
	samples := openLoop(clk, 1, 10, time.Second, func(_, i int) bool {
		clk.Sleep(service(i))
		return true
	})
	if len(samples) != 10 {
		t.Fatalf("%d samples, want 10", len(samples))
	}
	for i, s := range samples {
		if want := start.Add(time.Duration(i) * 100 * time.Millisecond); !s.Due.Equal(want) {
			t.Errorf("request %d due %v after start, want %v", i, s.Due.Sub(start), want.Sub(start))
		}
	}
	// Before the stall the generator is on schedule.
	for i := 0; i < 2; i++ {
		if samples[i].lateness() != 0 || samples[i].latency() != 10*time.Millisecond {
			t.Errorf("request %d: lateness %v latency %v, want 0 and 10ms", i, samples[i].lateness(), samples[i].latency())
		}
	}
	if got := samples[2].latency(); got != time.Second {
		t.Errorf("stalled request latency %v, want 1s", got)
	}
	// The stall ends at 1.2 s. Request 3 was due at 0.3 s: a closed
	// loop would report its 10 ms of service, the open loop reports
	// the 0.9 s it waited behind the stall as well.
	if got, want := samples[3].lateness(), 900*time.Millisecond; got != want {
		t.Errorf("request 3 sent %v late, want %v", got, want)
	}
	if got, want := samples[3].latency(), 910*time.Millisecond; got != want {
		t.Errorf("request 3 latency %v, want %v (from its due time)", got, want)
	}
	// Every later request inherits the backlog, shrinking by the 90 ms
	// of slack per interval.
	for i := 4; i < 10; i++ {
		want := samples[i-1].latency() - 90*time.Millisecond
		if got := samples[i].latency(); got != want {
			t.Errorf("request %d latency %v, want %v", i, got, want)
		}
	}
}

func TestClosedLoopStopsAtLimitAndDeadline(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	op := func(_, _ int) bool { clk.Sleep(100 * time.Millisecond); return true }
	if got := len(closedLoop(clk, 1, time.Second, 0, op)); got != 10 {
		t.Errorf("one-second window of 100 ms operations sent %d, want 10", got)
	}
	if got := len(closedLoop(clk, 1, time.Hour, 7, op)); got != 7 {
		t.Errorf("limit 7 sent %d", got)
	}
}

// A refusal is a failed operation: it is counted in failed, and it
// never adds to goodput.
func TestRefusalsAreFailuresNotThroughput(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		switch i := n.Add(1); {
		case i%3 == 0:
			w.WriteHeader(http.StatusServiceUnavailable)
		case i%5 == 0:
			w.WriteHeader(http.StatusTooManyRequests)
		default:
			_, _ = w.Write([]byte("body"))
		}
	}))
	defer srv.Close()
	job := newCorpusJob(tinyJob("hadfl", 1), "x")
	job.first[readStatus] = []byte("body")
	rd, err := newReader(srv.URL, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.close()
	rd.corpus = []*corpusJob{job}

	samples := closedLoop(realClock{}, 1, time.Minute, 30, func(c, _ int) bool { return rd.read(c, readStatus, 0) })
	tl := tallyOf(samples)
	// Of requests 1..30, ten are multiples of 3 and four more are
	// multiples of 5 only.
	if tl.Sent != 30 || tl.Failed != 14 || tl.OK != 16 {
		t.Fatalf("tally = %+v, want 30 sent, 14 failed, 16 ok", tl)
	}
	if got, want := tl.goodput(), 16/tl.Elapsed.Seconds(); got != want {
		t.Errorf("goodput = %v, want %v: only successes count", got, want)
	}
	if got := len(okLatencies(samples)); got != 16 {
		t.Errorf("%d latencies, want the 16 successes only", got)
	}

	// A 200 with another body than the first one seen is a failure too.
	job.first[readStatus] = []byte("other")
	n.Store(0)
	if rd.read(0, readStatus, 0) {
		t.Error("a changed body passed the check")
	}
}
