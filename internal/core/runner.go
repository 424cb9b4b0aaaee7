package core

import (
	"context"
	"fmt"
	"math/rand"

	"hadfl/internal/coordinator"
	"hadfl/internal/device"
	"hadfl/internal/metrics"
	"hadfl/internal/p2p"
	"hadfl/internal/strategy"
)

// Config tunes a HADFL training run. The scheme-independent knobs
// (TargetEpochs, Seed, Parallelism, OnRound) live in the embedded
// RunConfig shared with the baseline schemes.
type Config struct {
	RunConfig
	// Strategy holds Tsync, Np and the Eq. 8 selection parameters.
	Strategy strategy.Config
	// Alpha is the Eq. 7 smoothing factor (0 < α < 1).
	Alpha float64
	// WarmupEpochs is the mutual-negotiation length; WarmupLRScale the
	// reduced learning-rate factor during it.
	WarmupEpochs  int
	WarmupLRScale float64
	// MergeBeta is how strongly unselected devices adopt the broadcast
	// aggregate (1 = replace local model; paper §III-D "integrate").
	MergeBeta float64
	// Link models the p2p network for communication-time charging.
	Link p2p.Link
	// DeviceLinks optionally overrides the link per device (the paper's
	// future-work axis "heterogeneous network bandwidth"): a ring
	// all-reduce is gated by its slowest member's link, and a broadcast
	// by the sender's.
	DeviceLinks map[int]p2p.Link
	// MaxRounds is a hard cap on synchronization rounds.
	MaxRounds int
	// FaultPenalty is the virtual seconds added to a sync round for each
	// bypassed dead device (timeout + handshake of §III-D).
	FaultPenalty float64
	// SelectOverride, when non-nil, replaces the plan's probability-based
	// selection — used by the worst-case and selection ablations. It
	// receives the alive device ids (sorted) and their current versions.
	SelectOverride func(rng *rand.Rand, alive []int, versions map[int]float64, np int) []int
	// LivenessTimeout is how stale a heartbeat may be before a device is
	// excluded from planning (virtual seconds).
	LivenessTimeout float64
}

// RoundInfo is per-round telemetry delivered to Config.OnRound.
type RoundInfo struct {
	Round      int
	Time       float64 // virtual time at round end
	Selected   []int   // ring members that actually aggregated
	Bypassed   int     // selected devices found dead and bypassed
	LocalSteps map[int]int
	Loss       float64
	Accuracy   float64
}

// DefaultConfig returns the configuration used by the paper-profile
// experiments: Tsync=1, Np=2 of 4 devices, α=0.5, full model adoption on
// broadcast.
func DefaultConfig() Config {
	return Config{
		RunConfig:       RunConfig{TargetEpochs: 60, Seed: 1},
		Strategy:        strategy.Config{Tsync: 1, Np: 2},
		Alpha:           0.5,
		WarmupEpochs:    1,
		WarmupLRScale:   0.1,
		MergeBeta:       1,
		Link:            p2p.Link{Latency: 0.005, Bandwidth: 1e9},
		MaxRounds:       10000,
		FaultPenalty:    0.3,
		LivenessTimeout: 1e18,
	}
}

// Result bundles a run's training curve and communication accounting.
type Result struct {
	Series *metrics.Series
	Comm   *CommStats
	Rounds int
	// FinalParams is the last aggregated model.
	FinalParams []float64
}

// RunHADFL executes Algorithm 1 on the cluster and returns the training
// curve (one point per synchronization round). Cancellation, the
// concurrent training join and the curve follow the Loop contracts;
// what is HADFL's own is below: the coordinator's plan decides how long
// each device trains and which Np aggregate, dead ring members are
// bypassed at a time penalty, and the rest merge the broadcast.
func RunHADFL(ctx context.Context, c *Cluster, cfg Config) (*Result, error) {
	if cfg.Alpha <= 0 || cfg.Alpha >= 1 {
		return nil, fmt.Errorf("core: alpha %v outside (0,1)", cfg.Alpha)
	}
	if cfg.WarmupEpochs < 1 {
		return nil, fmt.Errorf("core: WarmupEpochs %d", cfg.WarmupEpochs)
	}
	if cfg.MergeBeta < 0 || cfg.MergeBeta > 1 {
		return nil, fmt.Errorf("core: MergeBeta %v", cfg.MergeBeta)
	}
	if err := cfg.Strategy.Validate(len(c.Devices)); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	coord := coordinator.New(cfg.Strategy, cfg.Alpha, 8, rng)
	l := NewLoop(ctx, c, "hadfl", cfg.RunConfig, cfg.Link)
	l.DeviceLinks = cfg.DeviceLinks
	l.WarmUp(cfg.WarmupEpochs, cfg.WarmupLRScale, func(d *device.Device, calc float64) error {
		return coord.RegisterProfile(coordinator.DeviceProfile{
			ID:           d.Cfg.ID,
			EpochTime:    d.EpochTime(),
			StepTime:     d.EpochTime() / float64(d.Loader.BatchesPerEpoch()),
			WarmupTime:   calc,
			WarmupEpochs: cfg.WarmupEpochs,
		}, 0)
	})

	// Round loop (workflow steps 4–8). The post statement counts rounds
	// that end in an empty ring too.
	for ; l.Next(cfg.MaxRounds); l.Rounds++ {
		// Heartbeats from devices alive now.
		for _, d := range c.Devices {
			if d.AliveAt(l.Now) {
				coord.Liveness.Heartbeat(d.Cfg.ID, l.Now)
			} else {
				coord.Liveness.MarkDead(d.Cfg.ID)
			}
		}
		plan, avail, err := coord.NextPlan(l.Now, cfg.LivenessTimeout)
		if err != nil {
			break // no devices left
		}

		// Local training: each available device fills the sync period
		// with local steps (Alg. 1 lines 13–19). Jitter and drift shift
		// the realized counts, which is what the predictor has to track;
		// 4·E+4 steps caps a device whose clock barely advances.
		parts, ok := l.Train(avail, func(d *device.Device) device.Partial {
			return d.FillPeriod(ctx, plan.SyncPeriod, 4*plan.LocalSteps[d.Cfg.ID]+4)
		})
		if !ok {
			break
		}
		loss := l.StepLoss(parts)
		l.Now += plan.SyncPeriod

		// Who is still alive at the sync instant: dead ring members are
		// bypassed (§III-D) at a time penalty. avail is sorted, so alive
		// is too — the order SelectOverride is promised.
		var alive []int
		for _, id := range avail {
			if c.Device(id).AliveAt(l.Now) {
				alive = append(alive, id)
			}
		}
		selected := plan.Selected
		if cfg.SelectOverride != nil && len(alive) > 0 {
			versions := map[int]float64{}
			for _, id := range alive {
				versions[id] = float64(c.Device(id).Version)
			}
			selected = cfg.SelectOverride(rng, alive, versions, min(cfg.Strategy.Np, len(alive)))
		}
		var ring []int
		bypassed := 0
		for _, id := range selected {
			if c.Device(id).AliveAt(l.Now) {
				ring = append(ring, id)
			} else {
				bypassed++
				coord.Liveness.MarkDead(id)
			}
		}
		// Float order is pinned: ring time then fault penalty on a
		// surviving ring, the penalty alone when nobody is left to
		// aggregate (the failed round is charged and the loop moves on).
		if len(ring) == 0 {
			l.Now += cfg.FaultPenalty * float64(bypassed)
			continue
		}
		l.Now += l.AllReduce(ring)
		l.Now += cfg.FaultPenalty * float64(bypassed)
		l.Now += l.Spread(rng, ring, alive, cfg.MergeBeta)
		l.Comm.Rounds++

		// Report versions (workflow step 7) so the tracker can predict.
		for _, id := range alive {
			coord.ReportVersion(id, float64(c.Device(id).Version), l.Now)
		}
		coord.Backup(l.Rounds, l.Global)
		l.Record(loss, RoundInfo{Selected: ring, Bypassed: bypassed, LocalSteps: plan.LocalSteps})
	}
	return l.Result()
}
