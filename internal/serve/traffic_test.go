package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hadfl"
	"hadfl/internal/metrics"
)

// TestMixedTrafficInvariants drives the full HTTP surface with
// concurrent mixed traffic over a synthetic runner — cache-hit and
// duplicate POSTs, fresh POSTs, polls with and without ?curve=1, SSE
// reads of done and live jobs, and POST-then-DELETE cancels — and
// checks what must hold whatever the interleaving, never how fast:
//
//   - every response is 2xx, 429 or 503;
//   - each fingerprint's runner runs at most once, and exactly once
//     for every job that was not canceled, however many duplicates
//     coalesced onto it;
//   - every SSE stream ends on a terminal state event, with its round
//     numbers strictly increasing;
//   - every DELETEd job reads canceled;
//   - the runs_*_total and cache counters conserve submissions.
//
// Run under -race (test-race-short does) it is the data-race gate for
// the serving path under traffic.
func TestMixedTrafficInvariants(t *testing.T) {
	const (
		rounds     = 6 // round events per synthetic run, well under subBuffer
		clients    = 8
		opsPerCli  = 30
		corpusSize = 4
		freshBase  = 10_000
		dupBase    = 20_000
		dupWindow  = 4 // consecutive dup requests sharing one seed
		cancelBase = 1_000_000
	)
	// Seeds are the fingerprints here: every other option is fixed.
	var runsMu sync.Mutex
	runs := map[int64]int{}
	runner := func(ctx context.Context, scheme string, opts hadfl.Options, onRound func(hadfl.RoundUpdate)) (*hadfl.Result, error) {
		runsMu.Lock()
		runs[opts.Seed]++
		runsMu.Unlock()
		if opts.Seed >= cancelBase {
			<-ctx.Done() // held until its DELETE cuts it
			return nil, ctx.Err()
		}
		series := &metrics.Series{Name: scheme}
		for i := 1; i <= rounds; i++ {
			select {
			case <-time.After(100 * time.Microsecond): // long enough for duplicates to coalesce
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			p := metrics.Point{Epoch: float64(i), Time: float64(i), Loss: 1 / float64(i), Accuracy: 0.5}
			series.Add(p)
			onRound(hadfl.RoundUpdate{Scheme: scheme, Round: i, Time: p.Time, Loss: p.Loss, Accuracy: p.Accuracy})
		}
		return &hadfl.Result{Scheme: scheme, Accuracy: 0.5, Rounds: rounds, Series: series}, nil
	}
	srv := mustNew(t, Config{Workers: 4, QueueDepth: 1024, Runner: runner})
	defer srv.Close(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// Bodies go through json.Encoder, trailing newline included.
	body := func(seed int64) string {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(RunRequest{Scheme: hadfl.SchemeHADFL, Options: hadfl.Options{Powers: []float64{2, 1}, Seed: seed}}); err != nil {
			panic(err)
		}
		return b.String()
	}

	var (
		mu       sync.Mutex
		accepted = map[int64]string{} // seed → job id, for every 202
		canceled []string             // ids whose DELETE was acknowledged
		posts    int                  // POSTs that reached the cache (2xx or 503)
		problems []string             // reported after the traffic drains
	)
	problem := func(format string, args ...any) {
		mu.Lock()
		problems = append(problems, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	// do issues one request and records it; the decoded status is zero
	// unless the response was 2xx.
	do := func(method, path, reqBody string) (int, JobStatus) {
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(reqBody))
		if err != nil {
			panic(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			problem("%s %s: %v", method, path, err)
			return 0, JobStatus{}
		}
		defer resp.Body.Close()
		var st JobStatus
		code := resp.StatusCode
		switch {
		case code >= 200 && code < 300:
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				problem("%s %s: undecodable status: %v", method, path, err)
			}
		case code != http.StatusTooManyRequests && code != http.StatusServiceUnavailable:
			problem("%s %s = %d", method, path, code)
		}
		if method == http.MethodPost && (code < 300 || code == http.StatusServiceUnavailable) {
			mu.Lock()
			posts++
			mu.Unlock()
		}
		return code, st
	}
	post := func(seed int64) (int, JobStatus) {
		code, st := do(http.MethodPost, "/runs", body(seed))
		if code == http.StatusAccepted {
			mu.Lock()
			accepted[seed] = st.ID
			mu.Unlock()
		}
		return code, st
	}
	// readSSE consumes a stream to its end and checks its shape.
	readSSE := func(id string) {
		resp, err := client.Get(ts.URL + "/runs/" + id + "/events")
		if err != nil {
			problem("SSE %s: %v", id, err)
			return
		}
		defer resp.Body.Close()
		var last Event
		prevRound, n := 0, 0
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			last = Event{}
			if err := json.Unmarshal([]byte(data), &last); err != nil {
				problem("SSE %s: bad payload %q", id, data)
				return
			}
			n++
			if last.Type == "round" {
				if last.Round == nil || last.Round.Round <= prevRound {
					problem("SSE %s: round %+v after round %d", id, last.Round, prevRound)
					return
				}
				prevRound = last.Round.Round
			}
		}
		if n == 0 || last.Type != "state" || !last.State.Terminal() {
			problem("SSE %s: stream of %d events ends on %+v, want a terminal state event", id, n, last)
		}
	}

	// A completed corpus backs the hit, poll and curve classes.
	corpus := make([]string, corpusSize)
	for i := range corpus {
		code, st := post(int64(i + 1))
		if code != http.StatusAccepted {
			t.Fatalf("corpus POST %d = %d", i, code)
		}
		corpus[i] = st.ID
	}
	for _, id := range corpus {
		waitDone(t, ts.URL, id)
	}

	var freshSeq, dupSeq, cancelSeq atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			live := corpus[c%corpusSize] // this client's latest submission
			for op := 0; op < opsPerCli; op++ {
				switch rng.Intn(7) {
				case 0: // cache hit
					post(int64(rng.Intn(corpusSize) + 1))
				case 1: // fresh run
					if code, st := post(freshBase + freshSeq.Add(1)); code < 300 {
						live = st.ID
					}
				case 2: // duplicates: the first misses, the rest coalesce or hit
					if code, st := post(dupBase + dupSeq.Add(1)/dupWindow); code < 300 {
						live = st.ID
					}
				case 3:
					do(http.MethodGet, "/runs/"+corpus[rng.Intn(corpusSize)], "")
				case 4:
					do(http.MethodGet, "/runs/"+corpus[rng.Intn(corpusSize)]+"?curve=1", "")
				case 5: // SSE on a done job or on one that may still be live
					if rng.Intn(2) == 0 {
						readSSE(corpus[rng.Intn(corpusSize)])
					} else {
						readSSE(live)
					}
				case 6:
					code, st := post(cancelBase + cancelSeq.Add(1))
					if code != http.StatusAccepted {
						continue
					}
					if code, _ := do(http.MethodDelete, "/runs/"+st.ID, ""); code == http.StatusAccepted {
						mu.Lock()
						canceled = append(canceled, st.ID)
						mu.Unlock()
					}
				}
			}
		}(c)
	}
	wg.Wait()

	for _, p := range problems {
		t.Error(p)
	}
	for _, id := range canceled {
		if st := waitDone(t, ts.URL, id); st.State != StateCanceled {
			t.Errorf("DELETEd job %s reads %v, want canceled", id, st.State)
		}
	}
	if len(canceled) == 0 {
		t.Error("no cancel went through; the DELETE path was not exercised")
	}

	final := map[int64]State{}
	for seed, id := range accepted {
		final[seed] = waitDone(t, ts.URL, id).State
	}
	queuedCancels := int64(0) // accepted, then canceled before a worker took them
	runsMu.Lock()
	defer runsMu.Unlock()
	for seed, state := range final {
		n := runs[seed]
		switch {
		case n > 1:
			t.Errorf("seed %d ran %d times, want once however many duplicates", seed, n)
		case seed >= cancelBase && n == 0:
			queuedCancels++
		case seed < cancelBase && (n != 1 || state != StateDone):
			t.Errorf("seed %d ran %d times and reads %v, want once and done", seed, n, state)
		}
	}
	for seed := range runs {
		if _, ok := accepted[seed]; !ok {
			t.Errorf("seed %d ran without a 202 ever creating its job", seed)
		}
	}

	// Conservation. Every counter is written before the terminal state it
	// accounts for is published, so once every job reads terminal the
	// books must balance exactly.
	reg := srv.reg
	submitted, started := reg.Counter("runs_submitted_total"), reg.Counter("runs_started_total")
	finished := reg.Counter("runs_completed_total") + reg.Counter("runs_canceled_total") +
		reg.Counter("runs_failed_total") + reg.Counter("runs_timeout_total")
	if submitted != int64(len(accepted)) {
		t.Errorf("runs_submitted_total = %d, want one per 202 (%d)", submitted, len(accepted))
	}
	if started != int64(len(runs)) || started != finished {
		t.Errorf("runs_started_total = %d, runner invoked for %d fingerprints, %d runs finished", started, len(runs), finished)
	}
	if submitted != started+queuedCancels {
		t.Errorf("runs_submitted_total %d != started %d + canceled while queued %d", submitted, started, queuedCancels)
	}
	if lookups := reg.Counter("cache_hits_total") + reg.Counter("cache_misses_total"); lookups != int64(posts) {
		t.Errorf("cache hits+misses = %d, want one per answered POST (%d)", lookups, posts)
	}
	if got := reg.Counter("cancels_requested_total"); got != int64(len(canceled)) {
		t.Errorf("cancels_requested_total = %d, want %d", got, len(canceled))
	}
	t.Logf("%d POSTs: %d created jobs, %d cache hits; %d runs, %d canceled (%d while queued)",
		posts, len(accepted), reg.Counter("cache_hits_total"), len(runs), len(canceled), queuedCancels)
}
