// hadfl-worker is one remote-execution node for hadfl-serve's
// dispatcher: it listens on a p2p TCP transport, registers with any
// dispatcher that hellos it, acks liveness heartbeats, executes
// dispatched runs through the scheme registry (streaming per-round
// telemetry back), and aborts runs cooperatively on cancel frames or
// propagated deadlines. See internal/serve/dispatch for the protocol.
//
// A worker's -id must match its position in the dispatcher's worker
// list: `hadfl-serve -dispatch addr1,addr2` addresses the worker at
// addr1 as id 1 and addr2 as id 2.
//
// Example (one serve node, two workers):
//
//	hadfl-worker -id 1 -listen 127.0.0.1:7071 &
//	hadfl-worker -id 2 -listen 127.0.0.1:7072 &
//	hadfl-serve -dispatch 127.0.0.1:7071,127.0.0.1:7072
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
	"syscall"
	"time"

	"hadfl"
	"hadfl/internal/metrics"
	"hadfl/internal/p2p"
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

// run parses flags (errors and usage go to errOut), binds the p2p
// listener and serves dispatch frames until the process is signaled or
// quit is closed. When ready is non-nil the bound address is sent on
// it once the listener is up (the smoke test's hook).
func run(args []string, out, errOut io.Writer, ready chan<- string, quit <-chan struct{}) error {
	fs := flag.NewFlagSet("hadfl-worker", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		listen    = fs.String("listen", "127.0.0.1:7071", "p2p listen address for dispatch frames")
		id        = fs.Int("id", 1, "worker node id (position in the dispatcher's -dispatch list, 1-based)")
		capacity  = fs.Int("capacity", 1, "concurrent dispatched runs before busy-rejecting")
		tpar      = fs.Int("tensor-workers", 0, "scoring replicas per evaluation (0 = GOMAXPROCS)")
		httpAddr  = fs.String("http", "", "observability HTTP listen address serving /metrics, /debug/traces and /healthz (empty = disabled)")
		logLevel  = fs.String("log-level", "warn", "structured log threshold: debug, info, warn, error, or off")
		withPprof = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (with -http)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errBadFlags
	}
	if *id <= 0 {
		fmt.Fprintln(errOut, "hadfl-worker: -id must be positive (dispatchers reserve id 0)")
		return errBadFlags
	}

	hadfl.SetComputeParallelism(*tpar)
	logger, err := trace.NewLogger(errOut, *logLevel)
	if err != nil {
		fmt.Fprintf(errOut, "hadfl-worker: %v\n", err)
		return errBadFlags
	}
	reg := metrics.NewRegistry()
	tracer := trace.NewTracer(0)
	start := time.Now()
	node, err := p2p.ListenTCP(*id, *listen)
	if err != nil {
		return err
	}
	defer node.Close()
	w, err := dispatch.NewWorker(dispatch.WorkerConfig{
		Transport: node,
		Capacity:  *capacity,
		AddPeer:   node.AddPeer,
		Metrics:   reg,
		Tracer:    tracer,
		Logger:    logger,
	})
	if err != nil {
		return err
	}
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", metrics.Handler(reg, start))
		mux.Handle("GET /debug/traces", tracer.Handler())
		mux.HandleFunc("GET /healthz", func(hw http.ResponseWriter, _ *http.Request) {
			hw.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(hw, "{\"status\":\"ok\",\"running\":%d}\n", w.ActiveRuns())
		})
		if *withPprof {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		obsSrv := &http.Server{Handler: mux}
		go func() { _ = obsSrv.Serve(ln) }()
		defer func() {
			closeCtx, cancel := context.WithTimeout(context.Background(), time.Second)
			_ = obsSrv.Shutdown(closeCtx)
			cancel()
		}()
		fmt.Fprintf(out, "hadfl-worker %d observability HTTP on %s\n", *id, ln.Addr())
	}
	fmt.Fprintf(out, "hadfl-worker %d listening on %s (capacity=%d)\n", *id, node.Addr(), *capacity)
	if ready != nil {
		ready <- node.Addr()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if quit != nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		go func() {
			select {
			case <-quit:
				cancel()
			case <-ctx.Done():
			}
		}()
	}
	err = w.Serve(ctx)
	fmt.Fprintln(out, "hadfl-worker shutting down")
	if errors.Is(err, context.Canceled) {
		return nil // signaled: in-flight runs were canceled cooperatively
	}
	return err
}
