// Package hadfl is the public façade of the HADFL reproduction: a
// heterogeneity-aware decentralized federated-learning framework (Cao et
// al., DAC 2021). It wraps the internal packages into a small API for
// running pluggable training schemes on simulated heterogeneous
// clusters.
//
// Quick start:
//
//	res, err := hadfl.Run(hadfl.Options{Powers: []float64{4, 2, 2, 1}})
//	fmt.Printf("accuracy %.1f%% in %.0f virtual seconds\n",
//		100*res.Accuracy, res.Time)
//
// The schemes are a closed set of five (see Schemes):
//
//   - SchemeHADFL: the paper's contribution — asynchronous local steps
//     proportional to device power, probability-based partial
//     aggregation over a gossip ring, fault-tolerant bypass.
//   - SchemeFedAvg: Decentralized-FedAvg — equal local steps, full
//     synchronous gossip average.
//   - SchemeDistributed: PyTorch-DDP-style synchronous data parallelism
//     with per-iteration ring all-reduce.
//   - SchemeAsyncFL: centralized asynchronous FL with
//     staleness-weighted aggregation (the related-work family the paper
//     argues against).
//   - SchemeHADFLGrouped: the paper's Fig. 2(a) hierarchy — intra-group
//     partial aggregation every round, periodic inter-group syncs over
//     per-group representatives.
//
// RunContext threads a context.Context through every scheme: cancel it
// and the run stops within about one device step, returning ctx.Err().
//
// Times are virtual seconds from the discrete simulation (the paper's
// sleep()-emulated heterogeneity); compare ratios, not absolutes.
package hadfl

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"hadfl/internal/core"
	"hadfl/internal/experiments"
	"hadfl/internal/metrics"
	"hadfl/internal/tensor"
)

// Options configures a training run. Its JSON form is the one wire form
// of run options: the serve API's request body, the result store's
// sidecar files and the dispatch protocol's request frames all encode
// this struct, so the field order below is also the encoded key order
// and moving a field changes bytes on the wire.
type Options struct {
	// Powers is the computing-power ratio array (device count = len).
	// Default: [4,2,2,1], the paper's more skewed distribution.
	Powers []float64 `json:"powers,omitempty"`
	// Model selects the workload: "resnet" (residual) or "vgg" (plain).
	// Default "resnet".
	Model string `json:"model,omitempty"`
	// Full switches from the fast MLP-based profile to the convolutional
	// profile (slower, closer to the paper's models).
	Full bool `json:"full,omitempty"`
	// TargetEpochs overrides the workload's epoch budget when > 0.
	TargetEpochs float64 `json:"targetEpochs,omitempty"`
	// NonIIDAlpha, when > 0, splits data with a Dirichlet(alpha)
	// partition instead of IID.
	NonIIDAlpha float64 `json:"nonIIDAlpha,omitempty"`
	// Seed makes runs reproducible. Default 1.
	Seed int64 `json:"seed,omitempty"`
	// FailAt schedules device crashes: id → virtual failure time.
	FailAt map[int]float64 `json:"failAt,omitempty"`
	// GroupSize and InterEvery shape the hierarchical hadfl-grouped
	// scheme: the maximum devices per group and the inter-group sync
	// period in intra-group rounds (§III-C: the inter-group period is an
	// integer multiple of the intra-group period). 0 keeps the scheme's
	// defaults (2 and 2); the non-hierarchical schemes ignore both.
	// Unlike Parallelism these change the training trajectory, so they
	// participate in Canonical/Fingerprint — sweeping them from the
	// serve API yields distinct cached results per setting.
	GroupSize  int `json:"groupSize,omitempty"`
	InterEvery int `json:"interEvery,omitempty"`
	// OnRound, when non-nil, receives progress after every HADFL
	// synchronization round. The baseline schemes report through it
	// too — FedAvg per round, distributed per evaluation interval —
	// with Selected empty and Bypassed zero. It never changes the run's
	// outcome (excluded from Canonical/Fingerprint) and never crosses a
	// wire: remote progress flows as events and round frames instead.
	OnRound func(RoundUpdate) `json:"-"`
	// Parallelism bounds how many simulated devices compute at once,
	// for every scheme — inside each synchronization round, during the
	// warm-up and across asyncfl's device cycles (0 = GOMAXPROCS, 1 =
	// sequential). It is a throughput knob only: results are
	// byte-identical at every setting, so it is excluded from
	// Canonical/Fingerprint and two requests differing only in
	// Parallelism coalesce onto one cached result. The tensor kernels
	// under each device are serial loops; the evaluator's scoring
	// replicas are capped by SetComputeParallelism instead.
	Parallelism int `json:"parallelism,omitempty"`
}

// SetComputeParallelism caps how many scoring replicas one evaluation
// runs side by side, for every run in the process; 0 or negative
// resets it to GOMAXPROCS. Like Options.Parallelism this never changes
// results, only throughput. Call it at startup, not while runs are in
// flight.
func SetComputeParallelism(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	tensor.SetParallelism(n)
}

// RoundUpdate is per-round progress delivered to Options.OnRound. Its
// JSON form is the one wire form of a round: the serve API's SSE
// "round" events and the dispatch protocol's round frames both encode
// this struct. Scheme stays off the wire — a stream or frame already
// belongs to one run.
type RoundUpdate struct {
	// Scheme names the run that produced this update — the attribution
	// handle when one callback observes several schemes at once
	// (Compare runs them concurrently).
	Scheme   string  `json:"-"`
	Round    int     `json:"round"`
	Time     float64 `json:"time"` // virtual seconds at round end
	Loss     float64 `json:"loss"`
	Accuracy float64 `json:"accuracy"`
	Selected []int   `json:"selected,omitempty"` // devices that performed the partial aggregation
	Bypassed int     `json:"bypassed,omitempty"` // dead ring members bypassed this round
}

func (o *Options) fill() {
	if len(o.Powers) == 0 {
		o.Powers = []float64{4, 2, 2, 1}
	}
	if o.Model == "" {
		o.Model = "resnet"
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

func (o Options) workload() (experiments.Workload, error) {
	var w experiments.Workload
	switch o.Model {
	case "resnet":
		w = experiments.ResNetWorkload(!o.Full, o.Seed)
	case "vgg":
		w = experiments.VGGWorkload(!o.Full, o.Seed)
	default:
		return w, fmt.Errorf("hadfl: unknown model %q (want resnet or vgg)", o.Model)
	}
	if o.TargetEpochs > 0 {
		w.TargetEpochs = o.TargetEpochs
	}
	return w, nil
}

// cluster fills the defaults and builds the federation these options
// describe, returning it with the workload it came from. It is the one
// place the façade spells out a core.ClusterSpec, so a run, an
// EvaluateParams of its model and the InitialParams a wire codec
// derives all see the same architecture, data and seed.
func (o *Options) cluster() (*core.Cluster, experiments.Workload, error) {
	o.fill()
	w, err := o.workload()
	if err != nil {
		return nil, w, err
	}
	c, err := core.BuildCluster(core.ClusterSpec{
		Powers:       o.Powers,
		BaseStepTime: w.BaseStepTime,
		Arch:         w.Arch,
		Train:        w.Train,
		Test:         w.Test,
		NonIIDAlpha:  o.NonIIDAlpha,
		BatchSize:    w.BatchSize,
		LR:           w.LR,
		Momentum:     w.Momentum,
		WeightDecay:  w.WeightDecay,
		FailAt:       o.FailAt,
		Seed:         o.Seed,
	})
	return c, w, err
}

// Result summarizes one training run. Its JSON form is the one wire
// form of a run's summary: the serve API's status "result" object, the
// result store's sidecar files and the dispatch protocol's result
// frames all embed this struct, so the field order below is also the
// encoded key order. The curve, the parameter vector and the eval
// telemetry stay off it: each path ships the curve in its own shape,
// the parameters travel as raw64 or a model file, and wall-clock
// telemetry must never reach the HTTP bytes.
type Result struct {
	// Scheme that produced this result.
	Scheme string `json:"scheme"`
	// Accuracy is the maximum test accuracy reached (0..1).
	Accuracy float64 `json:"accuracy"`
	// Time is the virtual time (seconds) at which Accuracy was reached —
	// the Table I metric.
	Time float64 `json:"time"`
	// Rounds is the number of synchronization rounds (or iterations).
	Rounds int `json:"rounds"`
	// DeviceBytes / ServerBytes account communication volume.
	DeviceBytes int64 `json:"deviceBytes"`
	ServerBytes int64 `json:"serverBytes"`
	// Series is the full training curve.
	Series *metrics.Series `json:"-"`
	// FinalParams is the final aggregated model's flat parameter vector,
	// loadable with EvaluateParams or persistable via
	// coordinator.ModelStore.
	FinalParams []float64 `json:"-"`
	// EvalBatches / EvalSeconds report the evaluation engine's work for
	// this run (scoring batches forwarded, wall-clock seconds) — the
	// source of the serve layer's eval_batches_total /
	// eval_seconds_total metrics. Telemetry only: excluded from
	// Canonical/Fingerprint like every other observability field.
	EvalBatches int64   `json:"-"`
	EvalSeconds float64 `json:"-"`
}

func summarize(scheme string, res *core.Result) *Result {
	t, acc, _ := res.Series.TimeToMaxAccuracy()
	return &Result{
		Scheme:      scheme,
		Accuracy:    acc,
		Time:        t,
		Rounds:      res.Rounds,
		DeviceBytes: res.Comm.TotalDeviceBytes(),
		ServerBytes: res.Comm.ServerBytes,
		Series:      res.Series,
		FinalParams: res.FinalParams,
	}
}

// EvaluateParams loads a flat parameter vector (e.g. a persisted model
// snapshot) into the workload's model and returns test loss and
// accuracy. The Options must match the run that produced the vector
// (same Model, Full flag and Seed, so architecture and test split
// agree).
func EvaluateParams(opts Options, params []float64) (loss, acc float64, err error) {
	cluster, _, err := opts.cluster()
	if err != nil {
		return 0, 0, err
	}
	loss, acc = cluster.Evaluate(params)
	return loss, acc, nil
}

// InitialParams returns the deterministic initial parameter vector a
// run with these options starts from — a pure function of the workload
// architecture and Seed. Both ends of a dispatched job can derive it
// independently, which is what lets reference-based wire codecs (delta,
// topk) encode a trained model against it without shipping the
// reference itself.
func InitialParams(opts Options) ([]float64, error) {
	cluster, _, err := opts.cluster()
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), cluster.InitParams...), nil
}

// Run trains with the HADFL scheme.
func Run(opts Options) (*Result, error) {
	return RunContext(context.Background(), SchemeHADFL, opts)
}

// RunScheme trains with the named scheme.
func RunScheme(scheme string, opts Options) (*Result, error) {
	return RunContext(context.Background(), scheme, opts)
}

// RunContext trains with the named scheme under ctx:
// cancellation (or deadline expiry) stops the run within about one
// device step and returns ctx.Err(). The scheme dispatch, defaults and
// result shape are otherwise identical to RunScheme.
func RunContext(ctx context.Context, scheme string, opts Options) (*Result, error) {
	run, ok := lookupScheme(scheme)
	if !ok {
		return nil, unknownSchemeError(scheme)
	}
	if err := ctx.Err(); err != nil {
		return nil, err // fail fast before paying cluster construction
	}
	cluster, w, err := opts.cluster()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rc := core.RunConfig{
		TargetEpochs: w.TargetEpochs,
		Seed:         opts.Seed,
		Parallelism:  opts.Parallelism,
		LocalSteps:   w.FedAvgLocalSteps,
		GroupSize:    opts.GroupSize,
		InterEvery:   opts.InterEvery,
	}
	if opts.OnRound != nil {
		cb := opts.OnRound
		rc.OnRound = func(ri core.RoundInfo) {
			cb(RoundUpdate{
				Scheme: scheme,
				Round:  ri.Round, Time: ri.Time, Loss: ri.Loss,
				Accuracy: ri.Accuracy, Selected: ri.Selected, Bypassed: ri.Bypassed,
			})
		}
	}
	res, err := run(ctx, cluster, rc)
	if err != nil {
		return nil, err
	}
	out := summarize(scheme, res)
	st := cluster.EvalStats()
	out.EvalBatches = st.Batches
	out.EvalSeconds = st.Seconds
	return out, nil
}

// Compare runs every scheme on identical clusters and
// returns results keyed by scheme name. See CompareContext.
func Compare(opts Options) (map[string]*Result, error) {
	return CompareContext(context.Background(), opts)
}

// CompareContext runs every scheme concurrently (each on its
// own identically seeded cluster, so results match sequential runs
// byte-for-byte) and returns results keyed by scheme name. The schemes
// share an errgroup-style join: the first failure cancels the
// remaining runs, and canceling ctx aborts them all; the error
// reported is the root cause, not a secondary cancellation. A shared
// Options.OnRound is serialized across the runs (updates from
// different schemes never overlap; RoundUpdate.Scheme attributes
// them), so callers need no locking of their own.
func CompareContext(ctx context.Context, opts Options) (map[string]*Result, error) {
	schemes := Schemes()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if cb := opts.OnRound; cb != nil {
		var mu sync.Mutex
		opts.OnRound = func(u RoundUpdate) {
			mu.Lock()
			defer mu.Unlock()
			cb(u)
		}
	}
	results := make([]*Result, len(schemes))
	errs := make([]error, len(schemes))
	var wg sync.WaitGroup
	for i, scheme := range schemes {
		wg.Add(1)
		go func(i int, scheme string) {
			defer wg.Done()
			res, err := RunContext(ctx, scheme, opts)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", scheme, err)
				cancel()
				return
			}
			results[i] = res
		}(i, scheme)
	}
	wg.Wait()
	// Prefer a root-cause error over the context.Canceled noise the
	// shared cancel induced in sibling runs.
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		if !errors.Is(err, context.Canceled) {
			return nil, err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	out := make(map[string]*Result, len(schemes))
	for i, scheme := range schemes {
		out[scheme] = results[i]
	}
	return out, nil
}

// Speedup returns how much faster a reached accuracy target than b.
func Speedup(a, b *Result, target float64) (float64, bool) {
	return metrics.Speedup(a.Series, b.Series, target)
}
