package core

import (
	"context"
	"math/rand"
	"sync/atomic"

	"hadfl/internal/aggregate"
	"hadfl/internal/device"
	"hadfl/internal/metrics"
	"hadfl/internal/p2p"
	"hadfl/internal/tensor"
)

// Loop is the round loop every scheme shares: the virtual clock and
// step count, the curve, the byte accounting, the reusable parameter
// buffers and the run's context. A scheme is the policy on top — who
// trains how long, who aggregates with whom, what the clock is charged
// — written as a for l.Next(max) loop over Train / AllReduce / Spread /
// Record, ending in return l.Result(). Three contracts live here and
// nowhere else:
//
//   - Cancellation. ctx is checked at every round boundary (Next) and
//     after every training join (Train — warm-up is one such join); the
//     device step loops check it before each step. The
//     first error sticks: every later Next and Train reports false and
//     Result returns the error instead of a result, so a canceled run
//     stops within about one device step and partial state never
//     escapes. The checks are pure reads — an uncanceled run computes
//     the same bits with or without them.
//   - Determinism. Devices own disjoint state (model, optimizer,
//     loader, RNG), so Train may run them concurrently; their partials
//     are combined only after the join, in device order, which keeps
//     every float reduction — and so every curve — byte-identical at
//     every Parallelism. Concurrent devices (tensor.Concurrently) are
//     the one level of parallelism; the kernels under them are serial
//     loops.
//   - The curve. A point is (epochs processed so far, virtual clock,
//     the scheme's training loss for the interval, test accuracy of
//     Global), appended by Record, which is also the only place OnRound
//     fires.
//
// The clock is the scheme's to charge: AllReduce, ChargeRing and Spread
// return virtual seconds instead of adding them, because the order of
// the float additions is part of each scheme's pinned behaviour.
type Loop struct {
	C *Cluster
	// Now is the virtual clock in seconds; Steps counts device steps
	// taken so far (warm-up included) and is what the epoch budget is
	// measured in.
	Now   float64
	Steps int
	// Rounds counts completed rounds in the scheme's own unit (sync
	// rounds, iterations, server updates); it becomes Result.Rounds and
	// RoundInfo.Round.
	Rounds int
	// Global is the current aggregate: what Record scores and what
	// Result returns as FinalParams.
	Global []float64
	Comm   *CommStats
	// All lists every device id in cluster order.
	All []int
	// DeviceLinks optionally overrides the link per device (see
	// Config.DeviceLinks).
	DeviceLinks map[int]p2p.Link

	ctx        context.Context
	err        error
	cfg        RunConfig
	link       p2p.Link
	series     *metrics.Series
	gather     *ParamGather
	merge      []float64
	inRing     []bool
	parts      []device.Partial
	paramBytes int
	loss0      float64
}

// NewLoop prepares a run of the named scheme on c: Global starts as the
// shared initial model, the clock at zero. link is the default p2p link
// communication is charged on.
func NewLoop(ctx context.Context, c *Cluster, name string, cfg RunConfig, link p2p.Link) *Loop {
	n := len(c.InitParams)
	k := len(c.Devices)
	l := &Loop{
		C:          c,
		Global:     append([]float64(nil), c.InitParams...),
		Comm:       NewCommStats(),
		All:        make([]int, k),
		ctx:        ctx,
		cfg:        cfg,
		link:       link,
		series:     &metrics.Series{Name: name},
		gather:     NewParamGather(n),
		merge:      make([]float64, n),
		inRing:     make([]bool, k),
		parts:      make([]device.Partial, k),
		paramBytes: 8 * n,
	}
	for i, d := range c.Devices {
		l.All[i] = d.Cfg.ID
	}
	return l
}

// Err reports whether the run is over before its budget: ctx.Err() once
// the context is canceled, or the first error a WarmUp callback
// returned. It sticks.
func (l *Loop) Err() error {
	if l.err == nil {
		l.err = l.ctx.Err()
	}
	return l.err
}

// WarmUp runs the mutual-negotiation phase (paper §III-B, workflow
// steps 2–3): every device trains epochs epochs at a reduced learning
// rate — one Train over all devices — and then each, in device order,
// hands the device's measured calculation time to the scheme. Devices
// warm up in parallel in virtual time too, so the clock advances by the
// slowest. The warm-up models are then averaged so everyone starts
// aligned (Alg. 1 line 1), and the run Starts. A canceled warm-up calls
// each on no device.
func (l *Loop) WarmUp(epochs int, lrScale float64, each func(d *device.Device, calc float64) error) {
	parts, ok := l.Train(l.All, func(d *device.Device) device.Partial {
		return d.WarmupCtx(l.ctx, epochs, lrScale)
	})
	if !ok {
		return // Result surfaces the abort
	}
	end := 0.0
	for i, d := range l.C.Devices {
		end = max(end, parts[i].Elapsed)
		if l.err = each(d, parts[i].Elapsed); l.err != nil {
			return
		}
	}
	l.Now = end
	aggregate.MeanInto(l.Global, l.gather.CollectAll(l.C))
	l.Start()
}

// Start installs Global on every device and records the curve's first
// point. It must evaluate exactly once: evaluations are counted
// (Result.EvalBatches) and the initial loss is the fallback StepLoss
// reports.
func (l *Loop) Start() {
	for _, d := range l.C.Devices {
		d.SetParameters(l.Global)
	}
	var acc float64
	l.loss0, acc = l.C.Evaluate(l.Global)
	l.addPoint(l.loss0, acc)
}

// Next reports whether another round may start: the run is not
// canceled, fewer than maxRounds rounds have completed and the epoch
// budget is unspent.
func (l *Loop) Next(maxRounds int) bool {
	return l.Err() == nil && l.Rounds < maxRounds && l.C.EpochsProcessed(l.Steps) < l.cfg.TargetEpochs
}

// Train runs fn on each listed device — at most Parallelism at a time
// (0 = GOMAXPROCS), started in ids order — and joins. fn must touch only
// its device's state and per-device slots. The partials come back in
// ids order, valid until the next Train, with their steps already added
// to Steps; ok is false when the run was canceled, in which case the
// partials are abandoned and the scheme must stop.
func (l *Loop) Train(ids []int, fn func(d *device.Device) device.Partial) (parts []device.Partial, ok bool) {
	parts = l.parts[:len(ids)]
	if workers := min(l.cfg.Workers(), len(ids)); workers <= 1 {
		for i, id := range ids {
			parts[i] = fn(l.C.Device(id))
		}
	} else {
		var next atomic.Int64
		tensor.Concurrently(workers, func(int) {
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ids) {
					return
				}
				parts[i] = fn(l.C.Device(ids[i]))
			}
		})
	}
	if l.Err() != nil {
		return nil, false
	}
	for _, p := range parts {
		l.Steps += p.Steps
	}
	return parts, true
}

// StepLoss is the mean loss over every step of a training phase (the
// initial loss if no step ran).
func (l *Loop) StepLoss(parts []device.Partial) float64 {
	sum, n := 0.0, 0
	for _, p := range parts {
		sum += p.LossSum
		n += p.Steps
	}
	if n == 0 {
		return l.loss0
	}
	return sum / float64(n)
}

// linkFor resolves a device's link.
func (l *Loop) linkFor(id int) p2p.Link {
	if dl, ok := l.DeviceLinks[id]; ok {
		return dl
	}
	return l.link
}

// ChargeRing accounts a ring all-reduce of one parameter-sized vector
// among ids — 2·M·(n−1)/n bytes sent per member (scatter-reduce +
// all-gather), the standard ring volume — and returns its virtual
// duration, gated by the slowest member's link.
func (l *Loop) ChargeRing(ids []int) float64 {
	n := len(ids)
	worst := l.link
	for i, id := range ids {
		if dl := l.linkFor(id); i == 0 || dl.TransferTime(1<<20) > worst.TransferTime(1<<20) {
			worst = dl
		}
	}
	if n > 1 {
		per := int64(2 * l.paramBytes * (n - 1) / n)
		for _, id := range ids {
			l.Comm.DeviceBytes[id] += per
		}
	}
	return p2p.CommModel{Link: worst}.RingAllReduceTime(n, l.paramBytes)
}

// AllReduce averages the ring members' models into Global (the gossip
// scatter-gather of Eq. 5) and charges the ring.
func (l *Loop) AllReduce(ring []int) float64 {
	aggregate.MeanInto(l.Global, l.gather.Collect(l.C, ring))
	return l.ChargeRing(ring)
}

// Spread delivers Global: the ring members adopt it, and one of them —
// drawn from rng only when there is someone to send to, so a full ring
// consumes no randomness — broadcasts it to the members of among
// outside the ring, which merge it into their local models with weight
// beta (1 = replace; paper §III-D "integrate"). The broadcast is
// non-blocking for the receivers; the sender pays the serialization
// time, which is returned (0 without receivers).
func (l *Loop) Spread(rng *rand.Rand, ring, among []int, beta float64) float64 {
	for _, id := range ring {
		l.inRing[id] = true
		l.C.Device(id).SetParameters(l.Global)
	}
	rest := 0
	for _, id := range among {
		if l.inRing[id] {
			continue
		}
		rest++
		d := l.C.Device(id)
		d.ParametersInto(l.merge)
		aggregate.MergeInto(l.merge, l.merge, l.Global, beta)
		d.SetParameters(l.merge)
	}
	for _, id := range ring {
		l.inRing[id] = false
	}
	if rest == 0 {
		return 0
	}
	sender := ring[rng.Intn(len(ring))]
	l.Comm.DeviceBytes[sender] += int64(rest * l.paramBytes)
	return p2p.CommModel{Link: l.linkFor(sender)}.BroadcastTime(rest, l.paramBytes)
}

func (l *Loop) addPoint(loss, acc float64) {
	l.series.Add(metrics.Point{Epoch: l.C.EpochsProcessed(l.Steps), Time: l.Now, Loss: loss, Accuracy: acc})
}

// Record scores Global, appends the curve point and fires OnRound. ri
// carries the scheme's own telemetry (Selected, Bypassed, LocalSteps);
// Round, Time, Loss and Accuracy are filled in here. Round is Rounds as
// it stands, so a scheme that counts the round before recording it
// reports 1-based rounds and one that counts after reports 0-based.
func (l *Loop) Record(loss float64, ri RoundInfo) {
	_, acc := l.C.Evaluate(l.Global)
	l.addPoint(loss, acc)
	if l.cfg.OnRound != nil {
		ri.Round, ri.Time, ri.Loss, ri.Accuracy = l.Rounds, l.Now, loss, acc
		l.cfg.OnRound(ri)
	}
}

// RecordFinal appends a closing point for schemes whose last Record can
// predate the end of the run (they evaluate every N rounds): the final
// Global at the final clock, carrying the last recorded loss. It is not
// a round, so OnRound does not fire; a canceled run skips the scoring.
func (l *Loop) RecordFinal() {
	if l.Err() != nil {
		return
	}
	_, acc := l.C.Evaluate(l.Global)
	last, _ := l.series.FinalLoss()
	l.addPoint(last, acc)
}

// Result assembles the run's result, or returns the error that ended
// the run early.
func (l *Loop) Result() (*Result, error) {
	if err := l.Err(); err != nil {
		return nil, err
	}
	return &Result{Series: l.series, Comm: l.Comm, Rounds: l.Rounds, FinalParams: l.Global}, nil
}
