// Package eval implements the batched evaluation engine: scoring a
// flat parameter vector against a labelled dataset in batches of at
// most a fixed size, with one forward pass per batch producing loss
// and accuracy together (the training side of this contract is nn's
// fused SoftmaxCrossEntropyEvalInto kernel).
//
// Parallelism. The engine scores spans — contiguous sample ranges, one
// forward pass each — on scoring replicas that run side by side
// (tensor.Concurrently), at most tensor.Parallelism() of them; the
// kernels under each replica are plain serial loops. With at least
// that many full batches the spans are the batches. With fewer, and a
// replica factory, the set is cut into one span per replica instead, so
// a test split of a batch or two still uses every core.
//
// Determinism contract. However scoring is split, every quantity the
// engine reports is bit-identical at every parallelism level and every
// batch size:
//
//   - per-sample losses land in one flat buffer indexed by dataset
//     position, and spans slice the dataset contiguously, so the
//     buffer's contents do not depend on how samples were grouped
//     (every kernel under Model.Forward computes output rows
//     independently, in a fixed per-row operation order, and inference
//     batch norm uses running statistics);
//   - the loss reduction over that buffer runs in fixed tensor-layer
//     chunks (tensor.VecSum), so its bits depend only on the dataset
//     size;
//   - accuracy is an integer correct-count, summed exactly.
//
// Buffer ownership. The engine owns everything it touches between
// calls: the scoring replicas (models whose layer buffers persist),
// one row-slice view per replica, the per-sample loss buffer and the
// per-replica correct counts. Callers own only the parameter vector
// they pass in, which is read, never retained. Each replica always
// scores spans of one size, and a partial trailing span has a replica
// of its own, so in steady state — same dataset, batch size and
// parallelism — an evaluation on one replica performs zero heap
// allocations; running replicas side by side spends a few words on
// goroutine coordination.
//
// An Evaluator is not safe for concurrent use: it reuses its buffers
// across calls, so evaluations must be serialized by the caller (the
// training runners evaluate between rounds, which does this
// naturally).
package eval

import (
	"fmt"
	"sync/atomic"
	"time"

	"hadfl/internal/dataset"
	"hadfl/internal/nn"
	"hadfl/internal/tensor"
)

// DefaultBatchSize is the scoring batch size when Config.BatchSize is
// unset: large enough to amortize per-batch overhead. A test split
// with fewer full batches than replicas is cut into one span per
// replica instead (see the package comment).
const DefaultBatchSize = 256

// Config assembles an Evaluator.
type Config struct {
	// Data is the labelled set to score against.
	Data *dataset.Dataset
	// Model is the primary scoring replica. The engine owns it (and
	// its layer buffers) after New.
	Model *nn.Model
	// NewReplica builds an additional scoring replica with the same
	// architecture as Model; the engine overwrites its parameters
	// before use. nil confines the engine to the primary replica: the
	// remainder batch then reshapes the primary's layer buffers, so
	// only a factory-equipped engine reaches steady-state zero
	// allocations when the dataset size is not a batch multiple.
	NewReplica func() *nn.Model
	// BatchSize is the fixed scoring batch size, clamped to the
	// dataset size; 0 means DefaultBatchSize.
	BatchSize int
}

// Result holds one evaluation's outputs.
type Result struct {
	// Loss is the mean cross-entropy over the dataset.
	Loss float64
	// Accuracy is the fraction of samples classified correctly (0..1).
	Accuracy float64
	// Samples is the dataset size; Batches the number of BatchSize
	// batches it makes, the last possibly partial.
	Samples, Batches int
}

// Stats is cumulative engine telemetry, exported by the serve layer as
// eval_batches_total / eval_seconds_total.
type Stats struct {
	// Evals counts EvaluateInto calls; Batches the BatchSize batches
	// they scored.
	Evals, Batches int64
	// Seconds is wall-clock time spent scoring.
	Seconds float64
}

// replica is one scoring model plus its reused dataset view.
type replica struct {
	model *nn.Model
	view  *tensor.Tensor
}

// Evaluator scores parameter vectors against one dataset. See the
// package documentation for the determinism and ownership contracts.
type Evaluator struct {
	data       *dataset.Dataset
	batch      int
	newReplica func() *nn.Model

	// replicas[0] is Config.Model; more are built on demand, one per
	// worker that scores full spans. rem is the partial-span replica,
	// so the others keep stable buffer shapes; without a factory it is
	// replicas[0].
	replicas []*replica
	rem      *replica

	span, workers int // this call's span size and replica count

	sampleLoss []float64 // per-sample loss, indexed by dataset position
	correct    []int     // per-worker correct counts, disjoint writes

	evals, batches, nanos atomic.Int64
}

// New builds an Evaluator. Data and Model are required; Model must
// accept Data's sample shape.
func New(cfg Config) (*Evaluator, error) {
	if cfg.Data == nil || cfg.Data.Len() == 0 {
		return nil, fmt.Errorf("eval: empty dataset")
	}
	if cfg.Model == nil {
		return nil, fmt.Errorf("eval: Model is required")
	}
	n := cfg.Data.Len()
	b := cfg.BatchSize
	if b <= 0 {
		b = DefaultBatchSize
	}
	if b > n {
		b = n
	}
	e := &Evaluator{
		data:       cfg.Data,
		batch:      b,
		newReplica: cfg.NewReplica,
		replicas:   []*replica{{model: cfg.Model}},
		sampleLoss: make([]float64, n),
	}
	if e.newReplica == nil {
		e.rem = e.replicas[0]
	}
	return e, nil
}

// BatchSize returns the fixed scoring batch size.
func (e *Evaluator) BatchSize() int { return e.batch }

// Stats returns cumulative telemetry for every evaluation so far.
func (e *Evaluator) Stats() Stats {
	return Stats{
		Evals:   e.evals.Load(),
		Batches: e.batches.Load(),
		Seconds: float64(e.nanos.Load()) / 1e9,
	}
}

// Evaluate scores params and returns mean loss and accuracy.
func (e *Evaluator) Evaluate(params []float64) (loss, acc float64) {
	var res Result
	e.EvaluateInto(&res, params)
	return res.Loss, res.Accuracy
}

// EvaluateInto scores params into res: one forward pass per span
// produces loss and accuracy together, with spans spread over scoring
// replicas as the package comment describes. Results are bit-identical
// at every parallelism level and batch size.
func (e *Evaluator) EvaluateInto(res *Result, params []float64) {
	//lint:ignore walltime EvalSeconds telemetry only; the clock never reaches loss/accuracy numerics
	start := time.Now()
	n := e.data.Len()
	full := e.layout(tensor.Parallelism())
	for _, r := range e.replicas[:min(e.workers, full)] {
		r.model.SetParameters(params)
	}
	if n%e.span != 0 {
		e.rem.model.SetParameters(params)
	}

	if e.workers == 1 {
		e.scoreShare(0)
	} else {
		tensor.Concurrently(e.workers, e.scoreShare)
	}

	correct := 0
	for _, c := range e.correct[:e.workers] {
		correct += c
	}
	nb := (n + e.batch - 1) / e.batch
	res.Loss = tensor.VecSum(e.sampleLoss) / float64(n)
	res.Accuracy = float64(correct) / float64(n)
	res.Samples = n
	res.Batches = nb

	e.evals.Add(1)
	e.batches.Add(int64(nb))
	//lint:ignore walltime EvalSeconds telemetry only; the clock never reaches loss/accuracy numerics
	e.nanos.Add(time.Since(start).Nanoseconds())
}

// layout sets this call's span size and worker count for up to p
// replicas, grows the replica set to match (growth allocates; steady
// state does not) and returns the number of full spans. Spans are
// BatchSize batches when there are at least p full ones or no replica
// factory; otherwise the set is cut into at most p equal spans, each no
// larger than a batch.
func (e *Evaluator) layout(p int) (full int) {
	n := e.data.Len()
	if e.newReplica == nil {
		p = 1
	}
	e.span = e.batch
	if n/e.batch < p {
		e.span = (n + p - 1) / p
	}
	full = n / e.span
	e.workers = min(p, (n+e.span-1)/e.span)
	for len(e.replicas) < min(e.workers, full) {
		e.replicas = append(e.replicas, &replica{model: e.newReplica()})
	}
	if n%e.span != 0 && e.rem == nil {
		e.rem = &replica{model: e.newReplica()}
	}
	if len(e.correct) < e.workers {
		e.correct = make([]int, e.workers)
	}
	return full
}

// scoreShare scores worker w's spans — w, w+workers, w+2·workers, … —
// on its own replica, except the partial trailing span, which goes to
// the remainder replica. Each span records its per-sample losses; the
// worker's correct count lands in correct[w]. All writes are disjoint
// per worker.
func (e *Evaluator) scoreShare(w int) {
	n := e.data.Len()
	e.correct[w] = 0
	for lo := w * e.span; lo < n; lo += e.workers * e.span {
		hi := min(lo+e.span, n)
		r := e.rem
		if hi-lo == e.span {
			r = e.replicas[w]
		}
		r.view = tensor.SliceRows(r.view, e.data.X, lo, hi)
		logits := r.model.Forward(r.view, false)
		e.correct[w] += nn.SoftmaxCrossEntropyEvalInto(e.sampleLoss[lo:hi], logits, e.data.Y[lo:hi])
	}
}
