package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hadfl"
	"hadfl/internal/metrics"
	"hadfl/internal/serve"
)

// requestTimeout bounds every HTTP exchange, so a wedged server fails
// the operation instead of hanging the benchmark.
const requestTimeout = 30 * time.Second

// newHTTPClient returns a keep-alive client holding at most `conns`
// connections to the server under test.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// jobSpec is one generated request: the only thing the programs under
// test ever see of the workload seed.
type jobSpec struct {
	Scheme string
	Opts   hadfl.Options
}

func (j jobSpec) body() []byte {
	data, err := json.Marshal(serve.RunRequest{Scheme: j.Scheme, Options: serve.RunOptions{
		Powers:       j.Opts.Powers,
		Model:        j.Opts.Model,
		Full:         j.Opts.Full,
		TargetEpochs: j.Opts.TargetEpochs,
		Seed:         j.Opts.Seed,
	}})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return data
}

// tinyJob is the smallest job in which every scheme still completes a
// synchronization round: two devices, two epochs of the fast profile
// (≈90 ms). With one epoch the warm-up alone spends the budget and
// hadfl and hadfl-grouped return after zero rounds at the accuracy of
// guessing, which no output check could tell from a broken run. Small
// jobs make the fixed per-job cost as large a share of latency as it
// can be.
func tinyJob(scheme string, seed int64) jobSpec {
	return jobSpec{Scheme: scheme, Opts: hadfl.Options{Powers: []float64{2, 1}, TargetEpochs: 2, Seed: seed}}
}

// get fetches url and returns status and body.
func get(ctx context.Context, hc *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return do(hc, req)
}

func post(ctx context.Context, hc *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return do(hc, req)
}

func do(hc *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// followEvents reads a job's SSE stream to its terminal state event and
// returns that state with the time the event was seen. The rest of the
// stream is drained so the connection returns to the pool.
func followEvents(ctx context.Context, hc *http.Client, base, id string) (serve.State, time.Time, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/runs/"+id+"/events", nil)
	if err != nil {
		return "", time.Time{}, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return "", time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", time.Time{}, fmt.Errorf("GET events: status %d", resp.StatusCode)
	}
	var terminal serve.State
	var seen time.Time
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok || terminal != "" {
			continue
		}
		var e serve.Event
		if err := json.Unmarshal([]byte(data), &e); err != nil {
			return "", time.Time{}, fmt.Errorf("decoding event %q: %w", data, err)
		}
		if e.Type == "state" && e.State.Terminal() {
			terminal, seen = e.State, time.Now()
		}
	}
	if err := sc.Err(); err != nil {
		return "", time.Time{}, err
	}
	if terminal == "" {
		return "", time.Time{}, fmt.Errorf("event stream of %s ended without a terminal state", id)
	}
	return terminal, seen, nil
}

// fetchSchemes asks the server which schemes it has registered.
func fetchSchemes(ctx context.Context, hc *http.Client, base string) ([]string, error) {
	code, body, err := get(ctx, hc, base+"/schemes")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /schemes: status %d", code)
	}
	var out struct {
		Schemes []string `json:"schemes"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, err
	}
	if len(out.Schemes) == 0 {
		return nil, fmt.Errorf("GET /schemes: no schemes registered")
	}
	return out.Schemes, nil
}

// scrapeStats reads hadfl-serve's /stats registry snapshot.
func scrapeStats(ctx context.Context, hc *http.Client, base string) (metrics.Snapshot, error) {
	code, body, err := get(ctx, hc, base+"/stats")
	if err != nil {
		return metrics.Snapshot{}, err
	}
	if code != http.StatusOK {
		return metrics.Snapshot{}, fmt.Errorf("GET /stats: status %d", code)
	}
	var out struct {
		Metrics metrics.Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return metrics.Snapshot{}, fmt.Errorf("decoding /stats: %w", err)
	}
	return out.Metrics, nil
}

// scrapeProm reads a Prometheus text exposition (hadfl-worker's
// /metrics) into name → value; histogram series keep their _sum and
// _count names, bucket lines are skipped.
func scrapeProm(ctx context.Context, hc *http.Client, base string) (map[string]float64, error) {
	code, body, err := get(ctx, hc, base+"/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("parsing metric line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, nil
}

// counters is a flat view of a scrape, so serve's /stats and a worker's
// /metrics subtract the same way. Histograms appear as name_sum and
// name_count.
type counters map[string]float64

func countersOf(s metrics.Snapshot) counters {
	c := make(counters)
	for k, v := range s.Counters {
		c[k] = float64(v)
	}
	for k, h := range s.Histograms {
		c[k+"_sum"] = h.Sum
		c[k+"_count"] = float64(h.Count)
	}
	return c
}

// sub returns after − before, name by name.
func (after counters) sub(before counters) counters {
	d := make(counters, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

// histMean is the mean of a histogram's observations across the
// window, or 0 when it saw none.
func (c counters) histMean(name string) float64 {
	if n := c[name+"_count"]; n > 0 {
		return c[name+"_sum"] / n
	}
	return 0
}
