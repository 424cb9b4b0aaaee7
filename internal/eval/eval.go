// Package eval implements the batched evaluation engine: scoring a
// flat parameter vector against a labelled dataset in fixed-size
// batches, with one forward pass per batch producing loss and accuracy
// together (the training side of this contract is nn's fused
// SoftmaxCrossEntropyEvalInto kernel).
//
// Parallelism. There is one level of it at a time. With several full
// batches the engine shards them over scoring replicas — one goroutine
// each (tensor.Concurrently), capped by tensor.Parallelism() — and the
// kernels under every replica run serial for the duration: the replicas
// own the cores. A pass confined to one replica (a single batch, no
// factory, the trailing partial batch) is a model computing alone, and
// its kernels shard over the tensor pool as usual. The engine never
// submits its shard bodies to that pool: pool tasks must be leaves.
//
// Determinism contract. However scoring is sharded, every quantity the
// engine reports is bit-identical at every parallelism level and every
// batch size:
//
//   - per-sample losses land in one flat buffer indexed by dataset
//     position, and batches slice the dataset contiguously, so the
//     buffer's contents do not depend on how samples were batched
//     (every kernel under Model.Forward computes output rows
//     independently, in a fixed per-row operation order);
//   - the loss reduction over that buffer runs in fixed tensor-layer
//     chunks (tensor.VecSum), so its bits depend only on the dataset
//     size;
//   - accuracy is an integer correct-count, summed exactly.
//
// Buffer ownership. The engine owns everything it touches between
// calls: the scoring replicas (models whose layer buffers persist),
// one row-slice view per replica, the per-sample loss buffer and the
// per-batch correct counts. Callers own only the parameter vector they
// pass in, which is read, never retained. In steady state — same
// dataset, same batch size — an evaluation performs zero heap
// allocations on the serial kernel path (tensor.Parallelism() == 1);
// replica dispatch and sharded kernels spend a few words on goroutine
// coordination.
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
// unset: large enough to amortize per-batch overhead, small enough
// that several batches exist to shard on typical test splits.
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
	// Samples and Batches describe the pass that produced the scores.
	Samples, Batches int
}

// Stats is cumulative engine telemetry, exported by the serve layer as
// eval_batches_total / eval_seconds_total.
type Stats struct {
	// Evals counts EvaluateInto calls; Batches the forward passes they
	// performed.
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

	// replicas[0] is Config.Model; more are built on demand, capped by
	// the batch count. rem is the dedicated remainder-batch replica, so
	// the full-batch replicas keep stable buffer shapes.
	replicas []*replica
	rem      *replica

	fullBatches int // batches of exactly batch samples
	remSize     int // samples in the trailing partial batch (0 = none)

	sampleLoss   []float64 // per-sample loss, indexed by dataset position
	correctBatch []int     // per-batch correct counts, disjoint writes

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
		data:        cfg.Data,
		batch:       b,
		newReplica:  cfg.NewReplica,
		replicas:    []*replica{{model: cfg.Model}},
		fullBatches: n / b,
		remSize:     n % b,
		sampleLoss:  make([]float64, n),
	}
	e.correctBatch = make([]int, e.numBatches())
	return e, nil
}

// BatchSize returns the fixed scoring batch size.
func (e *Evaluator) BatchSize() int { return e.batch }

func (e *Evaluator) numBatches() int {
	nb := e.fullBatches
	if e.remSize > 0 {
		nb++
	}
	return nb
}

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

// EvaluateInto scores params into res: one forward pass per batch
// produces loss and accuracy together. Full-size batches shard across
// at most tensor.Parallelism() scoring replicas, each owned by one
// goroutine pulling batch indices from a shared counter, with serial
// kernels under them (see the package comment); the trailing
// partial batch, if any, is scored on its own replica so the
// full-batch replicas keep stable buffer shapes. Results are
// bit-identical at every parallelism level and batch size.
func (e *Evaluator) EvaluateInto(res *Result, params []float64) {
	//lint:ignore walltime EvalSeconds telemetry only; the clock never reaches loss/accuracy numerics
	start := time.Now()
	n := e.data.Len()
	nb := e.numBatches()

	p := tensor.Parallelism()
	if p > e.fullBatches {
		p = e.fullBatches
	}
	if e.newReplica == nil || p < 1 {
		p = 1
	}
	e.ensureReplicas(p)
	for _, r := range e.replicas[:p] {
		r.model.SetParameters(params)
	}

	if p <= 1 {
		r := e.replicas[0]
		for b := 0; b < e.fullBatches; b++ {
			e.scoreBatch(r, b)
		}
	} else {
		var next atomic.Int64
		tensor.Concurrently(p, func(w int) {
			r := e.replicas[w]
			for {
				b := int(next.Add(1)) - 1
				if b >= e.fullBatches {
					return
				}
				e.scoreBatch(r, b)
			}
		})
	}
	if e.remSize > 0 {
		e.scoreBatch(e.remainderReplica(params), e.fullBatches)
	}

	correct := 0
	for _, c := range e.correctBatch {
		correct += c
	}
	res.Loss = tensor.VecSum(e.sampleLoss) / float64(n)
	res.Accuracy = float64(correct) / float64(n)
	res.Samples = n
	res.Batches = nb

	e.evals.Add(1)
	e.batches.Add(int64(nb))
	//lint:ignore walltime EvalSeconds telemetry only; the clock never reaches loss/accuracy numerics
	e.nanos.Add(time.Since(start).Nanoseconds())
}

// scoreBatch runs batch b — samples [b*batch, min((b+1)*batch, n)) —
// through r and records its per-sample losses and correct count. All
// writes are disjoint per batch index.
func (e *Evaluator) scoreBatch(r *replica, b int) {
	lo := b * e.batch
	hi := lo + e.batch
	if n := e.data.Len(); hi > n {
		hi = n
	}
	r.view = tensor.SliceRows(r.view, e.data.X, lo, hi)
	logits := r.model.Forward(r.view, false)
	e.correctBatch[b] = nn.SoftmaxCrossEntropyEvalInto(e.sampleLoss[lo:hi], logits, e.data.Y[lo:hi])
}

// ensureReplicas grows the replica set to p. Growth allocates; steady
// state does not.
func (e *Evaluator) ensureReplicas(p int) {
	for len(e.replicas) < p {
		e.replicas = append(e.replicas, &replica{model: e.newReplica()})
	}
}

// remainderReplica returns the dedicated partial-batch replica with
// params loaded. Without a factory it falls back to the primary
// replica, whose layer buffers then reshape between batch sizes.
func (e *Evaluator) remainderReplica(params []float64) *replica {
	if e.newReplica == nil {
		return e.replicas[0]
	}
	if e.rem == nil {
		e.rem = &replica{model: e.newReplica()}
	}
	e.rem.model.SetParameters(params)
	return e.rem
}
