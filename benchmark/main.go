// The benchmark of the whole system: four named workloads, end-to-end
// metrics taken with tracing off, and a separate traced run that gives
// the per-layer numbers. BENCHMARK.json at the root of the repository
// names the command, the workloads and every metric; README.md says
// what each is for and how they interact.
//
//	bash benchmark/run.sh --workload dispatch_small_jobs --seed 1 --seconds 15 --trace 0
//	go run -C benchmark . -workload all -quick
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything else goes to
// standard error and to benchmark/out/.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// openLoopRate is the fixed arrival rate of serve_reads' open-loop
// phase, about a sixth of what two closed-loop readers reach on the
// two-core reference host. It is a constant so that every commit is
// offered the same load; it is never derived from a measurement.
const openLoopRate = 3000.0

// quickWindow is the window of a -quick run, and of the workloads a
// traced run measures besides the selected one.
const quickWindow = 2 * time.Second

// runEnv is what a workload run is given.
type runEnv struct {
	binDir string
	seed   int64
	window time.Duration
	nproc  int
	quick  bool      // reduced job lists, short probes
	rec    *recorder // nil = tracing off
	setups int       // how many times set-up is repeated for its median
	golden *goldenStore
}

// outcome is what one workload run measured.
type outcome struct {
	Workload  string             `json:"workload"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"` // first few, for the report
	SetupS    float64            `json:"setup_s"`
	Latency   latencySummary     `json:"op_latency"`
	Goodput   float64            `json:"goodput_per_s"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Load      tally              `json:"load"`
	Layer     map[string]float64 `json:"layer,omitempty"` // per-layer metrics this workload measures
	Reconcile *reconciliation    `json:"reconciliation,omitempty"`
	Notes     map[string]any     `json:"notes,omitempty"`
}

// measureSetup brings the system under test up `times` times, tearing
// every instance but the last down again, and returns the median time
// one set-up took. The last instance is the one the window measures.
func measureSetup(times int, setUp func(i int) error, tearDown func()) (float64, error) {
	var took []float64
	for i := 0; i < times; i++ {
		if i > 0 {
			tearDown()
		}
		t0 := time.Now()
		if err := setUp(i); err != nil {
			return 0, err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return median(took), nil
}

// fail records a failed check; only the first few messages are kept.
func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	if len(o.Failures) < 10 {
		o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
	}
}

// workload is one named set of inputs.
type workload struct {
	name string
	run  func(ctx context.Context, e *runEnv) (*outcome, error)
}

var workloads = []workload{
	{wlTrainMLP, func(ctx context.Context, e *runEnv) (*outcome, error) { return runTrain(ctx, e, trainMLP) }},
	{wlTrainConv, func(ctx context.Context, e *runEnv) (*outcome, error) { return runTrain(ctx, e, trainConv) }},
	{wlDispatch, runDispatchJobs},
	{wlReads, runServeReads},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the full document written to benchmark/out/.
type report struct {
	Env       environment            `json:"env"`
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Result    resultLine             `json:"result"`
	Outcomes  []*outcome             `json:"outcomes"`
	SelfTimes []layerTime            `json:"self_times,omitempty"`
	Probes    map[string]probeResult `json:"probes,omitempty"`
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		name    = flag.String("workload", "all", "workload to run: "+workloadNames()+", or all")
		seed    = flag.Int64("seed", 1, "workload seed; every job seed is derived from it")
		seconds = flag.Float64("seconds", 15, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		quick   = flag.Bool("quick", false, "smoke run: 2 s windows, reduced job lists, one set-up")
		update  = flag.Bool("update-golden", false, "rewrite benchmark/golden/*.json from this run's results")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if *seconds <= 0 || math.IsNaN(*seconds) {
		return fmt.Errorf("-seconds %v: want a positive number", *seconds)
	}
	if *quick {
		*seconds = quickWindow.Seconds()
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := workloadByName(*name); ok {
		selected = []workload{w}
	} else {
		return fmt.Errorf("unknown workload %q (have %s)", *name, workloadNames())
	}

	root, err := findRoot()
	if err != nil {
		return err
	}
	// SIGINT or SIGTERM cancels ctx, which kills every child process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	binDir := filepath.Join(root, ".bench_build", "bin")
	if err := buildBinaries(ctx, root, binDir); err != nil {
		return err
	}
	outDir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	golden, err := loadGolden(filepath.Join(root, "benchmark", "golden"), *update)
	if err != nil {
		return err
	}

	base := runEnv{
		binDir: binDir, seed: *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		nproc:  runtime.NumCPU(), quick: *quick, setups: 3,
		golden: golden,
	}
	if *quick {
		base.setups = 1
	}
	env := recordEnvironment(root, *seed, *seconds)
	allCorrect := true
	for _, w := range selected {
		rep := report{Env: env, Workload: w.name, Traced: *trace == 1}
		var err error
		if *trace == 1 {
			err = tracedRun(ctx, base, w, &rep, outDir)
		} else {
			err = endToEndRun(ctx, base, w, &rep)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		suffix := "e2e"
		if rep.Traced {
			suffix = "trace"
		}
		if err := writeJSON(filepath.Join(outDir, w.name+"-"+suffix+".json"), rep); err != nil {
			return err
		}
		line, err := json.Marshal(rep.Result)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		allCorrect = allCorrect && rep.Result.Correct
	}
	if err := golden.save(); err != nil {
		return err
	}
	if !allCorrect {
		return errors.New("output checks failed (see failures in benchmark/out/)")
	}
	return nil
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// findRoot locates the repository: the working directory when started
// by run.sh from the root, its parent under `go run -C benchmark .`.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "hadfl-serve", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("cannot find the repository (cmd/hadfl-serve) from %s", wd)
}

// endToEndRun measures one workload with tracing off and fills in the
// end-to-end metrics.
func endToEndRun(ctx context.Context, base runEnv, w workload, rep *report) error {
	e := base
	out, err := w.run(ctx, &e)
	if err != nil {
		return err
	}
	rep.Outcomes = []*outcome{out}
	values := map[string]float64{
		"setup_s":            out.SetupS,
		"op_latency_p50_ms":  out.Latency.P50 * 1e3,
		"op_latency_tail_ms": out.Latency.Tail * 1e3,
		"goodput_per_s":      out.Goodput,
		"peak_rss_mb":        out.PeakRSSMB,
	}
	rep.Result, err = resultOf(endToEnd, values, out)
	logFailures(out)
	return err
}

// tracedRun measures the selected workload at full length with spans
// on, then — so that every layer has a measured number in every traced
// run — the other workloads for a short fixed window and the in-process
// layer probes. Each per-layer metric comes from the workload (or
// probe) that exercises its layer.
func tracedRun(ctx context.Context, base runEnv, w workload, rep *report, outDir string) error {
	rec := newRecorder()

	// The same workload untraced, at half length, is the base of
	// trace.overhead_share.
	plain := base
	plain.setups = 1
	plain.window = max(base.window/2, quickWindow)
	untraced, err := w.run(ctx, &plain)
	if err != nil {
		return fmt.Errorf("untraced reference: %w", err)
	}

	values := make(map[string]float64)
	var selected *outcome
	for _, other := range workloads {
		e := base
		e.rec = rec
		e.setups = 1
		if other.name != w.name {
			e.quick = true
			e.window = quickWindow
		}
		out, err := other.run(ctx, &e)
		if err != nil {
			return fmt.Errorf("traced %s: %w", other.name, err)
		}
		rep.Outcomes = append(rep.Outcomes, out)
		for k, v := range out.Layer {
			values[k] += v // golden mismatches add up across workloads
		}
		if other.name == w.name {
			selected = out
		}
		logFailures(out)
	}

	probes, err := runProbes(ctx, &base, rec)
	if err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	rep.Probes = probes
	for k, p := range probes {
		values[k] = p.Value
	}

	values["loadgen.sent"] = float64(selected.Load.Sent)
	values["loadgen.succeeded"] = float64(selected.Load.OK)
	values["loadgen.failed"] = float64(selected.Load.Failed)
	values["trace.spans"] = float64(rec.len())
	values["trace.overhead_share"] = selected.Latency.P50/untraced.Latency.P50 - 1

	rep.SelfTimes = selfTimes(rec.spans)
	printSelfTimes(rep.SelfTimes)
	if err := rec.writeTrace(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
		return err
	}
	if r := selected.Reconcile; r != nil {
		r.print()
		if !r.OK {
			return fmt.Errorf("layers do not reconcile with the whole: unattributed %.1f%% of mean job latency (limit %.0f%%)",
				100*r.UnattributedShare, 100*reconcileLimit)
		}
	}
	// A failed check in any of the runs makes the traced run incorrect.
	total := &outcome{}
	for _, out := range rep.Outcomes {
		total.Attempted += out.Attempted
		total.Failed += out.Failed
	}
	rep.Result, err = resultOf(perLayer(), values, total)
	return err
}

// resultOf assembles the result line: every metric of defs must have a
// finite value.
func resultOf(defs []metricDef, values map[string]float64, out *outcome) (resultLine, error) {
	line := resultLine{
		Correct:   out.Failed == 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return line, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return line, fmt.Errorf("metric %s = %v is not finite", d.Name, v)
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if line.Attempted < 1 {
		return line, errors.New("no operation was attempted")
	}
	return line, nil
}

func logFailures(out *outcome) {
	for _, f := range out.Failures {
		fmt.Fprintf(os.Stderr, "benchmark: %s: FAILED CHECK: %s\n", out.Workload, f)
	}
}

func printSelfTimes(rows []layerTime) {
	fmt.Fprintf(os.Stderr, "\n%-28s %8s %12s %12s %7s\n", "layer (self time)", "spans", "total s", "self s", "share")
	for _, r := range rows {
		fmt.Fprintf(os.Stderr, "%-28s %8d %12.4f %12.4f %6.1f%%\n", r.Layer, r.Spans, r.TotalS, r.SelfS, 100*r.SelfPct)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
