package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// corpusSize is how many distinct completed jobs the reads go to: more
// than the cache's shard count, far fewer than its capacity, so every
// read is a hit on a pre-encoded status.
const corpusSize = 64

// nominalReadTail is the tail percentile of read latency a full window
// supports (≥ 1000 reads leave ten beyond p99).
const nominalReadTail = 99

// Read kinds and their mix: half plain status polls, a quarter polls
// with the full curve (a larger body), a quarter duplicate submissions
// answered from the cache.
const (
	readStatus = iota
	readCurve
	readDuplicatePost
	readKinds
)

var readKindNames = [readKinds]string{"GET /runs/{id}", "GET /runs/{id}?curve=1", "POST /runs (cache hit)"}

func pickKind(rng *rand.Rand) int {
	switch r := rng.Intn(4); r {
	case 0, 1:
		return readStatus
	case 2:
		return readCurve
	default:
		return readDuplicatePost
	}
}

// corpusJob is one completed job: the raw request of each kind of read
// and the first body seen for it, which every later body must equal.
type corpusJob struct {
	spec  jobSpec
	id    string
	raw   [readKinds][]byte
	first [readKinds][]byte
}

func newCorpusJob(spec jobSpec, id string) *corpusJob {
	j := &corpusJob{spec: spec, id: id}
	body := spec.body()
	j.raw[readStatus] = []byte("GET /runs/" + id + " HTTP/1.1\r\nHost: hadfl\r\n\r\n")
	j.raw[readCurve] = []byte("GET /runs/" + id + "?curve=1 HTTP/1.1\r\nHost: hadfl\r\n\r\n")
	j.raw[readDuplicatePost] = append([]byte(fmt.Sprintf(
		"POST /runs HTTP/1.1\r\nHost: hadfl\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(body))), body...)
	return j
}

// conn is one keep-alive HTTP/1.1 connection driven by a single
// goroutine: the request is written and the response read in place.
// net/http's client hands every exchange between three goroutines, and
// on the reference host that scheduling was a third of a cached read's
// round trip and switched between two regimes from run to run — the
// generator measuring itself. Reads are microseconds of server work,
// so they get the lean client; jobs take 100 ms and keep net/http.
type conn struct {
	c  net.Conn
	br *bufio.Reader
}

func dialConn(base string) (*conn, error) {
	c, err := net.DialTimeout("tcp", strings.TrimPrefix(base, "http://"), requestTimeout)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReader(c)}, nil
}

// roundTrip sends one pre-encoded request and reads the whole response.
func (c *conn) roundTrip(raw []byte) (int, []byte, error) {
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err := c.c.Write(raw); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// reader issues reads against the corpus, one connection per client,
// and checks them.
type reader struct {
	conns  []*conn
	corpus []*corpusJob
	rec    *recorder
}

func newReader(base string, clients int, rec *recorder) (*reader, error) {
	r := &reader{rec: rec}
	for i := 0; i < clients; i++ {
		c, err := dialConn(base)
		if err != nil {
			r.close()
			return nil, err
		}
		r.conns = append(r.conns, c)
	}
	return r, nil
}

func (r *reader) close() {
	for _, c := range r.conns {
		c.c.Close()
	}
}

// read performs one read of the given kind on the client's connection
// and reports whether it was answered 200 with the body first seen for
// that job and kind. Refusals (429, 503) and errors are failures.
func (r *reader) read(client, kind, job int) bool {
	j := r.corpus[job]
	t0 := time.Now()
	code, body, err := r.conns[client].roundTrip(j.raw[kind])
	if r.rec != nil {
		r.rec.add(0, j.id, "http.read", readKindNames[kind], t0, time.Now())
	}
	return err == nil && code == http.StatusOK && bytes.Equal(body, j.first[kind])
}

// populate submits the corpus, waits for every job, and records the
// reference body of each kind of read.
func (r *reader) populate(ctx context.Context, hc *http.Client, base string, seed int64, schemes []string) error {
	r.corpus = make([]*corpusJob, corpusSize)
	var mu sync.Mutex
	var firstErr error
	closedLoop(realClock{}, len(r.conns), setupWindow, corpusSize, func(client, i int) bool {
		spec := tinyJob(schemes[i%len(schemes)], deriveSeed(seed, streamCorpus, i))
		j, err := submitAndFollow(ctx, hc, base, spec)
		if err == nil {
			c := newCorpusJob(spec, j.id)
			for kind := 0; kind < readKinds && err == nil; kind++ {
				var code int
				code, c.first[kind], err = r.conns[client].roundTrip(c.raw[kind])
				if err == nil && code != http.StatusOK {
					err = fmt.Errorf("%s: status %d", readKindNames[kind], code)
				}
			}
			r.corpus[i] = c
		}
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
		return err == nil
	})
	return firstErr
}

// runServeReads measures the serve read path: a real hadfl-serve with
// its local pool, a corpus of completed jobs, then a closed-loop phase
// (capacity) and an open-loop phase at a fixed rate (latency from the
// due time), half the window each.
func runServeReads(ctx context.Context, e *runEnv) (*outcome, error) {
	out := &outcome{Workload: wlReads, Notes: make(map[string]any)}
	hc := newHTTPClient(e.nproc)
	defer hc.CloseIdleConnections()

	var (
		f  *fleet
		rd *reader
	)
	tearDown := func() {
		if rd != nil {
			rd.close()
		}
		f.stop()
	}
	defer tearDown()
	var err error
	out.SetupS, err = measureSetup(e.setups, func(int) error {
		var err error
		if f, err = startFleet(ctx, e.binDir, false, e.nproc); err != nil {
			return err
		}
		schemes, err := fetchSchemes(ctx, hc, f.base)
		if err != nil {
			return err
		}
		if rd, err = newReader(f.base, e.nproc, e.rec); err != nil {
			return err
		}
		if err := rd.populate(ctx, hc, f.base, e.seed, schemes); err != nil {
			return fmt.Errorf("populating the corpus: %w", err)
		}
		return nil
	}, tearDown)
	if err != nil {
		return nil, err
	}

	var before counters
	if e.rec != nil {
		snap, err := scrapeStats(ctx, hc, f.base)
		if err != nil {
			return nil, err
		}
		before = countersOf(snap)
	}

	// Phase A, closed loop: what the server can deliver to callers that
	// each wait for their reply. Every client draws its own requests
	// from the workload seed.
	rngs := make([]*rand.Rand, e.nproc)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(e.seed*131 + int64(c)))
	}
	phaseA := closedLoop(realClock{}, e.nproc, e.window/2, 0, func(c, _ int) bool {
		return rd.read(c, pickKind(rngs[c]), rngs[c].Intn(corpusSize))
	})

	// Phase B, open loop at the fixed rate: independent callers arrive
	// on a schedule whatever the server does. The plan is drawn up
	// front so that request i is the same on every commit.
	n := int(openLoopRate * (e.window / 2).Seconds())
	rng := rand.New(rand.NewSource(e.seed*131 + 127))
	kinds, targets := make([]int, n), make([]int, n)
	for i := range kinds {
		kinds[i], targets[i] = pickKind(rng), rng.Intn(corpusSize)
	}
	phaseB := openLoop(realClock{}, e.nproc, openLoopRate, e.window/2, func(c, i int) bool {
		return rd.read(c, kinds[i], targets[i])
	})
	if err := f.checkAlive(); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	a, b := tallyOf(phaseA), tallyOf(phaseB)
	out.Load = tally{Sent: a.Sent + b.Sent, OK: a.OK + b.OK, Failed: a.Failed + b.Failed, Elapsed: a.Elapsed + b.Elapsed}
	out.Attempted = out.Load.Sent
	out.Failed = out.Load.Failed
	if out.Failed > 0 {
		out.Failures = append(out.Failures, fmt.Sprintf("%d reads were refused, failed or returned a body other than the first seen", out.Failed))
	}
	out.Goodput = a.goodput()
	// The end-to-end latency is the closed-loop one: what each of the
	// waiting callers saw. The open-loop latency, taken from the due
	// time, is reported per layer: on the reference host it moves by
	// ±8 % between runs of one commit with the regime the idle cores
	// wake in, more than an end-to-end bound can absorb.
	if out.Latency, err = summarize(okLatencies(phaseA), nominalReadTail); err != nil {
		return nil, err
	}
	open, err := summarize(okLatencies(phaseB), nominalReadTail)
	if err != nil {
		return nil, err
	}
	var lateness, service []float64
	for _, s := range phaseB {
		lateness = append(lateness, s.lateness().Seconds())
		service = append(service, s.End.Sub(s.Start).Seconds())
	}
	latenessP99 := quantileSorted(sortedCopy(lateness), 0.99)
	// If the generator itself ran later than a typical read takes, the
	// open-loop latencies measure the generator.
	out.Notes["open_loop_valid"] = latenessP99 <= open.P50
	out.Notes["open_loop_latency"] = open
	out.Notes["open_loop_service_p50_s"] = median(service)
	out.Notes["lateness_p50_s"], out.Notes["lateness_p99_s"] = median(lateness), latenessP99
	out.Notes["phase_a"], out.Notes["phase_b"] = a, b

	if e.rec != nil {
		snap, err := scrapeStats(ctx, hc, f.base)
		if err != nil {
			return nil, err
		}
		d := countersOf(snap).sub(before)
		out.Layer = map[string]float64{
			"serve.read_latency_p50_s":       out.Latency.P50,
			"serve.read_latency_tail_s":      out.Latency.Tail,
			"serve.read_capacity_rps":        out.Goodput,
			"serve.open_loop_latency_p50_s":  open.P50,
			"serve.open_loop_latency_tail_s": open.Tail,
			"serve.get_status_mean_s":        d.histMean("http_request_seconds_get_runs_id"),
			"serve.cache_hits":               d["cache_hits_total"],
			"serve.queue_rejections":         d["queue_rejections_total"],
			"serve.rate_limited":             d["rate_limited_total"],
			"serve.response_bytes_per_req":   d["http_response_bytes_total"] / float64(out.Load.Sent),
			"loadgen.lateness_p99_s":         latenessP99,
		}
	}
	if out.PeakRSSMB, err = f.peakRSSMB(); err != nil {
		return nil, err
	}
	f.stop()
	return out, nil
}
