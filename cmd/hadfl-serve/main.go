// hadfl-serve exposes the HADFL simulator as a long-lived HTTP
// service: a bounded job queue drained by a worker pool, a
// content-addressed result cache (identical requests are served
// without retraining; concurrent duplicates coalesce onto one run),
// and per-round progress streaming over SSE. See internal/serve for
// the API.
//
// With -dispatch, jobs execute on remote hadfl-worker nodes over the
// internal/p2p dispatch protocol (load-balanced, retried on worker
// loss, falling back to local execution when no worker is live); a
// bare hadfl-serve behaves exactly as before.
//
// Examples:
//
//	hadfl-serve -addr :8080 -workers 4 -job-timeout 5m
//	hadfl-serve -addr :8080 -dispatch 127.0.0.1:7071,127.0.0.1:7072
//	curl -s localhost:8080/runs -d '{"scheme":"hadfl","options":{"powers":[4,2,2,1],"targetEpochs":8,"seed":1}}'
//	curl -N localhost:8080/runs/<id>/events
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hadfl"
	"hadfl/internal/metrics"
	"hadfl/internal/p2p"
	"hadfl/internal/serve"
	"hadfl/internal/serve/dispatch"
	"hadfl/internal/trace"
)

// errBadFlags signals that the FlagSet already printed the problem and
// usage; main exits without re-printing.
var errBadFlags = errors.New("invalid command line")

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdout, os.Stderr, nil, nil); err != nil {
		if errors.Is(err, errBadFlags) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// run parses flags (errors and usage go to errOut), binds the listener
// and serves until the process is signaled or quit is closed. When
// ready is non-nil the bound address is sent on it once the listener
// is up (the smoke test's hook).
func run(args []string, out, errOut io.Writer, ready chan<- net.Addr, quit <-chan struct{}) error {
	fs := flag.NewFlagSet("hadfl-serve", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		workers    = fs.Int("workers", 0, "concurrent runs (0 = GOMAXPROCS)")
		queueDepth = fs.Int("queue", 64, "waiting jobs beyond the running ones")
		jobTimeout = fs.Duration("job-timeout", 10*time.Minute, "per-run wall limit (0 = none)")
		rate       = fs.Float64("rate", 50, "sustained POST /runs per second (0 = unlimited)")
		burst      = fs.Int("burst", 100, "POST /runs burst size")
		grace      = fs.Duration("grace", 30*time.Second, "shutdown grace for running jobs")
		cacheMax   = fs.Int("cache-max", 1024, "max cached results before LRU eviction (0 = unbounded)")
		runPar     = fs.Int("run-parallelism", 0, "per-run device concurrency when a request leaves it unset (0 = sequential)")
		tpar       = fs.Int("tensor-workers", 0, "scoring replicas per evaluation (0 = GOMAXPROCS)")
		storeDir   = fs.String("store-dir", "", "persist completed results here and rehydrate them on boot (empty = in-memory only)")
		dispatchTo = fs.String("dispatch", "", "comma-separated hadfl-worker addresses to execute runs on (empty = run locally); the i-th address must be the worker started with -id i")
		dispAddr   = fs.String("dispatch-listen", "127.0.0.1:0", "p2p listen address for worker replies (with -dispatch)")
		dispWait   = fs.Duration("dispatch-wait", 3*time.Second, "how long to wait at boot for workers to register (with -dispatch)")
		wireCodec  = fs.String("wire-codec", "", "preferred parameter wire codec for dispatched results: raw64 (default, bit-exact), f32, delta or topk; workers not advertising it fall back to raw64")
		breakerN   = fs.Int("breaker-threshold", 5, "consecutive transient failures that open a worker's circuit breaker (0 = breaker off)")
		breakerCD  = fs.Duration("breaker-cooldown", 5*time.Second, "how long an open breaker waits before a half-open trial job is admitted")
		retryBO    = fs.Duration("retry-backoff", 50*time.Millisecond, "base jittered delay between retry attempts of one job, doubling per retry (0 = no backoff)")
		hedgeAfter = fs.Duration("hedge-after", 0, "launch a hedged duplicate of a run still in flight after this delay, first result wins (0 = hedging off); adapts to the observed p95 RTT once warmed up")
		logLevel   = fs.String("log-level", "warn", "structured log threshold: debug, info, warn, error, or off")
		withPprof  = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errBadFlags
	}

	hadfl.SetComputeParallelism(*tpar)
	logger, err := trace.NewLogger(errOut, *logLevel)
	if err != nil {
		fmt.Fprintf(errOut, "hadfl-serve: %v\n", err)
		return errBadFlags
	}
	reg := metrics.NewRegistry()
	// One tracer ring for the whole process: the serve pool's job spans
	// and the dispatcher's remote spans land in the same /debug/traces.
	tracer := trace.NewTracer(0)
	var runner serve.Runner
	var disp *dispatch.Dispatcher
	if *dispatchTo != "" {
		node, err := p2p.ListenTCP(0, *dispAddr)
		if err != nil {
			return err
		}
		var ids []int
		for i, addr := range strings.Split(*dispatchTo, ",") {
			id := i + 1 // a worker's -id is its 1-based position in this list
			node.AddPeer(id, strings.TrimSpace(addr))
			ids = append(ids, id)
		}
		// Flag semantics: 0 means "off"; the Config encodes off as a
		// negative value (its own 0 means "use the default").
		breakerThreshold := *breakerN
		if breakerThreshold == 0 {
			breakerThreshold = -1
		}
		retryBackoff := *retryBO
		if retryBackoff == 0 {
			retryBackoff = -1
		}
		disp, err = dispatch.New(dispatch.Config{
			Transport:        node,
			Workers:          ids,
			ReplyAddr:        node.Addr(),
			Codec:            *wireCodec,
			BreakerThreshold: breakerThreshold,
			BreakerCooldown:  *breakerCD,
			RetryBackoff:     retryBackoff,
			HedgeAfter:       *hedgeAfter,
			Metrics:          reg,
			Tracer:           tracer,
			Logger:           logger,
		})
		if err != nil {
			node.Close()
			return err
		}
		runner = disp.Run
		waitCtx, cancelWait := context.WithTimeout(context.Background(), *dispWait)
		if err := disp.WaitReady(waitCtx, len(ids)); err != nil {
			fmt.Fprintf(out, "hadfl-serve: %d of %d workers registered within %s; missing ones join via heartbeat\n",
				disp.LiveWorkers(), len(ids), *dispWait)
		}
		cancelWait()
		fmt.Fprintf(out, "hadfl-serve dispatching to %d workers (p2p %s)\n", len(ids), node.Addr())
	}
	srv, err := serve.New(serve.Config{
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		JobTimeout:      *jobTimeout,
		RatePerSec:      *rate,
		Burst:           *burst,
		CacheMaxEntries: *cacheMax,
		RunParallelism:  *runPar,
		StoreDir:        *storeDir,
		Runner:          runner,
		Metrics:         reg,
		Tracer:          tracer,
		Logger:          logger,
	})
	if err != nil {
		if disp != nil {
			disp.Close()
		}
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		// Nothing is running yet, so the close is immediate — but it
		// must happen: a caller that keeps the process alive (tests
		// drive run() directly) would otherwise leak the pool and the
		// dispatcher's listener, goroutines and worker hellos.
		closeCtx, cancelClose := context.WithTimeout(context.Background(), time.Second)
		_ = srv.Close(closeCtx)
		cancelClose()
		if disp != nil {
			_ = disp.Close()
		}
		return err
	}
	fmt.Fprintf(out, "hadfl-serve listening on %s (workers=%d queue=%d job-timeout=%s)\n",
		ln.Addr(), *workers, *queueDepth, *jobTimeout)

	var handler http.Handler = srv.Handler()
	if *withPprof {
		// Compose rather than registering on the service mux: pprof is
		// opt-in diagnostics, kept out of serve.New so embedding callers
		// never expose it by accident.
		root := http.NewServeMux()
		root.Handle("/", srv.Handler())
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = root
	}
	httpSrv := &http.Server{Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	if ready != nil {
		ready <- ln.Addr()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	case <-quit:
	}

	fmt.Fprintln(out, "hadfl-serve shutting down")
	// Close the pool first: once every job is terminal the SSE streams
	// end on their own, so Shutdown below isn't wedged behind
	// long-lived /events connections waiting on running jobs.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Close(shutdownCtx); err != nil {
		fmt.Fprintf(out, "hadfl-serve: running jobs canceled after grace: %v\n", err)
	}
	if disp != nil {
		// The pool has drained, so no dispatched run is in flight.
		if err := disp.Close(); err != nil {
			fmt.Fprintf(out, "hadfl-serve: dispatcher close: %v\n", err)
		}
	}
	httpCtx, httpCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer httpCancel()
	return httpSrv.Shutdown(httpCtx)
}
