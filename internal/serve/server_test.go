package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
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

func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func postRun(t *testing.T, url string, body string) (int, JobStatus) {
	t.Helper()
	resp, err := http.Post(url+"/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

func getStatus(t *testing.T, url, id string) (int, JobStatus) {
	t.Helper()
	resp, err := http.Get(url + "/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

func waitDone(t *testing.T, url, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, st := getStatus(t, url, id)
		if code != http.StatusOK {
			t.Fatalf("GET /runs/%s = %d", id, code)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobStatus{}
}

// TestConcurrentIdenticalSubmissionsRunOnce is the acceptance check:
// N identical concurrent POST /runs coalesce onto ONE underlying run,
// and a later identical request is served from cache.
func TestConcurrentIdenticalSubmissionsRunOnce(t *testing.T) {
	var runs atomic.Int64
	gate := make(chan struct{})
	openGate := sync.OnceFunc(func() { close(gate) })
	srv := mustNew(t, Config{Workers: 4, Runner: func(ctx context.Context, scheme string, _ hadfl.Options, _ func(hadfl.RoundUpdate)) (*hadfl.Result, error) {
		runs.Add(1)
		<-gate // hold the run so every duplicate arrives while in flight
		return &hadfl.Result{Scheme: scheme, Accuracy: 0.9, Rounds: 3}, nil
	}})
	defer srv.Close(context.Background())
	defer openGate() // unblock the runner before Close waits on it
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 16
	body := `{"scheme":"hadfl","options":{"powers":[4,2,2,1],"targetEpochs":5,"seed":42}}`
	ids := make([]string, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i], ids[i] = func() (int, string) {
				code, st := postRun(t, ts.URL, body)
				return code, st.ID
			}()
		}()
	}
	wg.Wait()
	openGate()

	accepted := 0
	for i := 0; i < n; i++ {
		if ids[i] != ids[0] || ids[i] == "" {
			t.Fatalf("request %d got id %q, want %q", i, ids[i], ids[0])
		}
		if codes[i] == http.StatusAccepted {
			accepted++
		} else if codes[i] != http.StatusOK {
			t.Fatalf("request %d status %d", i, codes[i])
		}
	}
	if accepted != 1 {
		t.Fatalf("%d requests created a job, want exactly 1", accepted)
	}
	st := waitDone(t, ts.URL, ids[0])
	if st.State != StateDone || st.Result == nil || st.Result.Accuracy != 0.9 {
		t.Fatalf("final status %+v", st)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("%d underlying runs for %d identical submissions", got, n)
	}

	// Completed: a repeat is served from cache, still exactly one run.
	code, st2 := postRun(t, ts.URL, body)
	if code != http.StatusOK || !st2.Cached || st2.State != StateDone || st2.Result == nil {
		t.Fatalf("cached resubmit: code %d status %+v", code, st2)
	}
	if runs.Load() != 1 {
		t.Fatal("cached resubmit re-ran training")
	}
}

// TestSSEStreamsRoundsDuringLiveRun is the acceptance check for the
// events endpoint: a real (tiny) HADFL training run streams at least
// one per-round update over SSE before the terminal "done" event.
func TestSSEStreamsRoundsDuringLiveRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real training run in -short mode")
	}
	srv := mustNew(t, Config{Workers: 1})
	defer srv.Close(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"scheme":"hadfl","options":{"powers":[4,2,2,1],"targetEpochs":8,"seed":11}}`
	code, st := postRun(t, ts.URL, body)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}

	resp, err := http.Get(ts.URL + "/runs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	rounds, states := 0, []State(nil)
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var e Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		switch e.Type {
		case "round":
			rounds++
			if e.Round == nil || e.Round.Time <= 0 {
				t.Fatalf("degenerate round event %+v", e)
			}
		case "state":
			states = append(states, e.State)
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if rounds < 1 {
		t.Fatal("no per-round SSE updates streamed")
	}
	if len(states) == 0 || states[len(states)-1] != StateDone {
		t.Fatalf("states %v, want trailing done", states)
	}
	final := waitDone(t, ts.URL, st.ID)
	if final.Result == nil || final.Result.Rounds != rounds {
		t.Fatalf("streamed %d rounds, result has %+v", rounds, final.Result)
	}
}

func TestStatusCurveParameter(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, Runner: func(context.Context, string, hadfl.Options, func(hadfl.RoundUpdate)) (*hadfl.Result, error) {
		s := &metrics.Series{Name: "stub"}
		s.Add(metrics.Point{Epoch: 1, Time: 2, Loss: 0.5, Accuracy: 0.7})
		return &hadfl.Result{Scheme: "stub", Accuracy: 0.7, Series: s}, nil
	}})
	defer srv.Close(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, st := postRun(t, ts.URL, `{"options":{"seed":5}}`)
	waitDone(t, ts.URL, st.ID)

	_, plain := getStatus(t, ts.URL, st.ID)
	if plain.Result == nil || plain.Result.Curve != nil || plain.Result.CurvePoints != 1 {
		t.Fatalf("plain status %+v", plain.Result)
	}
	code, withCurve := getStatus(t, ts.URL, st.ID+"?curve=1")
	if code != http.StatusOK || withCurve.Result == nil || len(withCurve.Result.Curve) != 1 {
		t.Fatalf("curve status %+v", withCurve.Result)
	}
}

func TestBadRequestsAndUnknownJobs(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, Runner: stubRunner(nil, nil, nil)})
	defer srv.Close(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, _ := postRun(t, ts.URL, `{"scheme":"quantum"}`); code != http.StatusBadRequest {
		t.Fatalf("unknown scheme = %d", code)
	}
	if code, _ := postRun(t, ts.URL, `{"options":{"powers":[-1]}}`); code != http.StatusBadRequest {
		t.Fatalf("invalid options = %d", code)
	}
	if code, _ := postRun(t, ts.URL, `{not json`); code != http.StatusBadRequest {
		t.Fatalf("malformed body = %d", code)
	}
	if code, _ := postRun(t, ts.URL, `{"bogus":1}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field = %d", code)
	}
	// One JSON value per body: a second one must not be silently dropped
	// (the first would be submitted as if it were the whole request).
	for _, body := range []string{
		`{"scheme":"hadfl"}{"scheme":"distributed"}`,
		`{"scheme":"hadfl"} x`,
	} {
		if code, _ := postRun(t, ts.URL, body); code != http.StatusBadRequest {
			t.Fatalf("trailing data %q = %d, want 400", body, code)
		}
	}
	if n := srv.cache.Len(); n != 0 {
		t.Fatalf("rejected bodies created %d jobs", n)
	}
	// Trailing whitespace is not data: json.Encoder's newline still passes.
	if code, _ := postRun(t, ts.URL, "{\"options\":{\"seed\":3}}\n \t\r\n"); code != http.StatusAccepted {
		t.Fatalf("body with trailing whitespace = %d, want 202", code)
	}
	if code, _ := getStatus(t, ts.URL, "deadbeef"); code != http.StatusNotFound {
		t.Fatalf("unknown id = %d", code)
	}
	resp, err := http.Get(ts.URL + "/runs/deadbeef/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id events = %d", resp.StatusCode)
	}
}

func TestRateLimiterRejectsBursts(t *testing.T) {
	gate := make(chan struct{})
	srv := mustNew(t, Config{Workers: 1, RatePerSec: 0.001, Burst: 2,
		Runner: func(ctx context.Context, s string, _ hadfl.Options, _ func(hadfl.RoundUpdate)) (*hadfl.Result, error) {
			<-gate
			return &hadfl.Result{Scheme: s}, nil
		}})
	defer srv.Close(context.Background())
	defer close(gate) // unblock the runner before Close waits on it
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	codes := map[int]int{}
	for i := 0; i < 4; i++ {
		code, _ := postRun(t, ts.URL, fmt.Sprintf(`{"options":{"seed":%d}}`, i+1))
		codes[code]++
	}
	if codes[http.StatusAccepted] != 2 || codes[http.StatusTooManyRequests] != 2 {
		t.Fatalf("codes %v", codes)
	}
	var buf bytes.Buffer
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Metrics metrics.Snapshot `json:"metrics"`
	}
	if err := json.NewDecoder(io.TeeReader(resp.Body, &buf)).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Metrics.Counters["rate_limited_total"] != 2 {
		t.Fatalf("stats %s", buf.String())
	}
}

func TestQueueFullReturns503(t *testing.T) {
	gate := make(chan struct{})
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 1,
		Runner: func(ctx context.Context, s string, _ hadfl.Options, _ func(hadfl.RoundUpdate)) (*hadfl.Result, error) {
			select {
			case <-gate:
			case <-ctx.Done():
			}
			return &hadfl.Result{Scheme: s}, nil
		}})
	defer srv.Close(context.Background())
	defer close(gate) // unblock the runner before Close waits on it
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code1, st1 := postRun(t, ts.URL, `{"options":{"seed":1}}`)
	if code1 != http.StatusAccepted {
		t.Fatalf("first = %d", code1)
	}
	// Wait for the worker to hold job 1 so job 2 occupies the queue.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, st := getStatus(t, ts.URL, st1.ID); st.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if code, _ := postRun(t, ts.URL, `{"options":{"seed":2}}`); code != http.StatusAccepted {
		t.Fatalf("second = %d", code)
	}
	code3, _ := postRun(t, ts.URL, `{"options":{"seed":3}}`)
	if code3 != http.StatusServiceUnavailable {
		t.Fatalf("third = %d, want 503", code3)
	}
	// The rejected job was finished as failed, so resubmitting retries
	// (and is rejected again while the queue is still full) rather than
	// returning the dead job as a cache hit.
	code4, st4 := postRun(t, ts.URL, `{"options":{"seed":3}}`)
	if code4 != http.StatusServiceUnavailable || st4.Cached {
		t.Fatalf("resubmit = %d cached=%v", code4, st4.Cached)
	}
}

func TestHealthzAndStats(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, Runner: stubRunner(nil, nil, nil)})
	defer srv.Close(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, st := postRun(t, ts.URL, `{"options":{"seed":9}}`)
	waitDone(t, ts.URL, st.ID)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" || health["jobs"].(float64) != 1 {
		t.Fatalf("health %v", health)
	}

	resp2, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var stats struct {
		CacheJobs int              `json:"cacheJobs"`
		Config    map[string]any   `json:"config"`
		Metrics   metrics.Snapshot `json:"metrics"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.CacheJobs != 1 || stats.Config["workers"].(float64) != 1 {
		t.Fatalf("stats %+v", stats)
	}
	if stats.Metrics.Counters["runs_completed_total"] != 1 ||
		stats.Metrics.Counters["runs_scheme_"+hadfl.SchemeHADFL] != 1 {
		t.Fatalf("metrics %+v", stats.Metrics.Counters)
	}
}

// TestCacheDispositionConsistentAcrossEndpoints pins the cache field's
// contract: a fresh POST reports miss, a duplicate of an in-flight run
// reports coalesced, a POST of a completed result reports hit — and GET
// /runs/{id} (with and without ?curve=1) agrees with the submission
// path instead of staying silent: miss while the run is live, hit once
// it is done.
func TestCacheDispositionConsistentAcrossEndpoints(t *testing.T) {
	gate := make(chan struct{})
	srv := mustNew(t, Config{Workers: 1, Runner: func(ctx context.Context, scheme string, _ hadfl.Options, _ func(hadfl.RoundUpdate)) (*hadfl.Result, error) {
		<-gate
		s := &metrics.Series{Name: scheme}
		s.Add(metrics.Point{Epoch: 1, Time: 1, Loss: 0.4, Accuracy: 0.8})
		return &hadfl.Result{Scheme: scheme, Accuracy: 0.8, Series: s}, nil
	}})
	defer srv.Close(context.Background())
	opened := false
	openGate := func() {
		if !opened {
			close(gate)
			opened = true
		}
	}
	defer openGate()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"options":{"seed":77}}`
	code, st := postRun(t, ts.URL, body)
	if code != http.StatusAccepted || st.Cache != CacheMiss || st.Cached {
		t.Fatalf("fresh POST: code=%d cache=%q cached=%v, want 202/miss/false", code, st.Cache, st.Cached)
	}
	// Still in flight (the runner is gated): duplicates coalesce, polls miss.
	code, dup := postRun(t, ts.URL, body)
	if code != http.StatusOK || dup.Cache != CacheCoalesced || !dup.Cached {
		t.Fatalf("in-flight duplicate: code=%d cache=%q cached=%v, want 200/coalesced/true", code, dup.Cache, dup.Cached)
	}
	if _, live := getStatus(t, ts.URL, st.ID); live.Cache != CacheMiss || live.Cached {
		t.Fatalf("live poll: cache=%q cached=%v, want miss/false", live.Cache, live.Cached)
	}

	openGate()
	done := waitDone(t, ts.URL, st.ID)
	if done.State != StateDone || done.Cache != CacheHit || !done.Cached {
		t.Fatalf("done poll: state=%v cache=%q cached=%v, want done/hit/true", done.State, done.Cache, done.Cached)
	}
	code, again := postRun(t, ts.URL, body)
	if code != http.StatusOK || again.Cache != CacheHit || !again.Cached {
		t.Fatalf("completed resubmit: code=%d cache=%q cached=%v, want 200/hit/true", code, again.Cache, again.Cached)
	}
	_, curved := getStatus(t, ts.URL, st.ID+"?curve=1")
	if curved.Cache != CacheHit || curved.Result == nil || len(curved.Result.Curve) != 1 {
		t.Fatalf("curve poll: cache=%q result=%+v, want hit with 1 curve point", curved.Cache, curved.Result)
	}
}

// TestCancelEndpoint covers DELETE /runs/{id}: a running job reaches
// Canceled with the client-cancel cause, an unknown id is 404, and a
// done job is untouched by a late cancel.
func TestCancelEndpoint(t *testing.T) {
	started := make(chan struct{}, 1)
	srv := mustNew(t, Config{Workers: 1, Runner: func(ctx context.Context, scheme string, _ hadfl.Options, _ func(hadfl.RoundUpdate)) (*hadfl.Result, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	defer srv.Close(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	del := func(id string) (int, JobStatus) {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/runs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st JobStatus
		if resp.StatusCode < 300 {
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, st
	}

	if code, _ := del("deadbeef"); code != http.StatusNotFound {
		t.Fatalf("unknown id DELETE = %d, want 404", code)
	}
	_, st := postRun(t, ts.URL, `{"options":{"seed":99}}`)
	<-started
	if code, _ := del(st.ID); code != http.StatusAccepted {
		t.Fatalf("DELETE running job = %d, want 202", code)
	}
	final := waitDone(t, ts.URL, st.ID)
	if final.State != StateCanceled || !final.Canceled {
		t.Fatalf("final after cancel: %+v, want canceled", final)
	}
	job, ok := srv.cache.Get(st.ID)
	if !ok {
		t.Fatal("canceled job fell out of the cache")
	}
	if _, jerr := job.Result(); jerr == nil || !jerr.IsCanceled() {
		t.Fatalf("job error %v, want canceled", jerr)
	}
}

// TestSchemesEndpointListsRegistry checks that GET /schemes mirrors the
// façade registry — including asyncfl, which PR 3 made public.
func TestSchemesEndpointListsRegistry(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, Runner: stubRunner(nil, nil, nil)})
	defer srv.Close(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/schemes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Schemes []string `json:"schemes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	want := hadfl.Schemes()
	if len(got.Schemes) != len(want) {
		t.Fatalf("GET /schemes = %v, want %v", got.Schemes, want)
	}
	for i := range want {
		if got.Schemes[i] != want[i] {
			t.Fatalf("GET /schemes[%d] = %q, want %q", i, got.Schemes[i], want[i])
		}
	}
}

// TestAsyncFLThroughHTTPAPI round-trips the asyncfl scheme through the
// real runner: fingerprinted, trained, cached like any other scheme.
func TestAsyncFLThroughHTTPAPI(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1})
	defer srv.Close(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"scheme":"asyncfl","options":{"powers":[2,1],"targetEpochs":2,"seed":7}}`
	code, st := postRun(t, ts.URL, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	wantFP, err := hadfl.Fingerprint(hadfl.SchemeAsyncFL, hadfl.Options{
		Powers: []float64{2, 1}, TargetEpochs: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != wantFP {
		t.Fatalf("job id %s, want fingerprint %s", st.ID, wantFP)
	}
	final := waitDone(t, ts.URL, st.ID)
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("final %+v", final)
	}
	if final.Result.Scheme != hadfl.SchemeAsyncFL || final.Result.Accuracy <= 0 ||
		final.Result.ServerBytes == 0 {
		t.Fatalf("asyncfl summary %+v (async-centralized FL must load the server)", final.Result)
	}
	// Identical resubmission: pure cache hit.
	code2, st2 := postRun(t, ts.URL, body)
	if code2 != http.StatusOK || !st2.Cached || st2.ID != st.ID {
		t.Fatalf("resubmit = %d cached=%v", code2, st2.Cached)
	}
}
