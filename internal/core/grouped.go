package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"hadfl/internal/device"
	"hadfl/internal/predict"
	"hadfl/internal/strategy"
)

// GroupedConfig configures the multi-group HADFL of the paper's
// Fig. 2(a): devices are divided into groups "to facilitate management
// and avoid possible system errors"; intra-group partial aggregation
// runs every round, and every InterEvery rounds an inter-group
// synchronization aggregates representatives across groups. The
// inter-group period is thus an integer multiple of the intra-group
// period, as §III-C specifies.
//
// The scheme-independent knobs (TargetEpochs, Seed, Parallelism,
// OnRound) live in Base's embedded RunConfig, so the registered
// "hadfl-grouped" scheme overlays the façade's shared RunConfig onto
// these defaults like every other scheme.
type GroupedConfig struct {
	Base Config
	// GroupSize is the maximum devices per group.
	GroupSize int
	// InterEvery runs an inter-group sync every this many rounds.
	InterEvery int
	// IntraNp devices are selected per group each intra-group round.
	IntraNp int
}

// DefaultGroupedConfig groups 4-device federations into pairs with an
// inter-group sync every 2 rounds.
func DefaultGroupedConfig() GroupedConfig {
	return GroupedConfig{
		Base:       DefaultConfig(),
		GroupSize:  2,
		InterEvery: 2,
		IntraNp:    1,
	}
}

// RunHADFLGrouped executes hierarchical HADFL on the cluster under the
// Loop contracts. Its policy: every device fills the slowest group's
// sync period; groups aggregate internally every round, and every
// InterEvery rounds the freshest member of each group forms a
// cross-group ring instead.
func RunHADFLGrouped(ctx context.Context, c *Cluster, cfg GroupedConfig) (*Result, error) {
	// The embedded RunConfig carries the façade's hierarchy knobs (it
	// is the scheme-independent transport; Apply copied them into
	// Base). Resolve them onto this config's own fields here, next to
	// their only reader, so direct GroupedConfig users and the façade
	// path share one overlay rule: a set RunConfig knob wins, zero
	// keeps the explicit (or default) field.
	if cfg.Base.RunConfig.GroupSize > 0 {
		cfg.GroupSize = cfg.Base.RunConfig.GroupSize
	}
	if cfg.Base.RunConfig.InterEvery > 0 {
		cfg.InterEvery = cfg.Base.RunConfig.InterEvery
	}
	if cfg.GroupSize < 1 {
		return nil, fmt.Errorf("core: GroupSize %d", cfg.GroupSize)
	}
	if cfg.InterEvery < 1 {
		return nil, fmt.Errorf("core: InterEvery %d", cfg.InterEvery)
	}
	if cfg.IntraNp < 1 || cfg.IntraNp > cfg.GroupSize {
		return nil, fmt.Errorf("core: IntraNp %d outside [1,%d]", cfg.IntraNp, cfg.GroupSize)
	}
	base := cfg.Base
	if base.Alpha <= 0 || base.Alpha >= 1 {
		return nil, fmt.Errorf("core: alpha %v", base.Alpha)
	}
	rng := rand.New(rand.NewSource(base.Seed + 31))
	tracker := predict.NewTracker(base.Alpha)
	l := NewLoop(ctx, c, "hadfl-grouped", base.RunConfig, base.Link)
	l.WarmUp(base.WarmupEpochs, base.WarmupLRScale, func(d *device.Device, calc float64) error {
		tracker.Seed(d.Cfg.ID, predict.ExpectedVersion(
			float64(base.Strategy.Tsync)*d.EpochTime(), calc, base.WarmupEpochs))
		return nil
	})

	// Fixed grouping for the whole run (the paper regroups only on
	// membership changes).
	groups := strategy.Groups(rng, l.All, cfg.GroupSize)

	// Per-group plan generation: each group has its own hyperperiod from
	// its members' epoch times; the global round period is the maximum
	// over groups so the timeline stays aligned.
	groupPlan := func(g []int) (strategy.Plan, error) {
		var ests []strategy.DeviceEstimate
		for _, id := range g {
			d := c.Device(id)
			v, _ := tracker.Forecast(id, 1) // 0 before the first observation
			ests = append(ests, strategy.DeviceEstimate{
				ID: id, EpochTime: d.EpochTime(),
				StepTime: d.EpochTime() / float64(d.Loader.BatchesPerEpoch()),
				Version:  v,
			})
		}
		sc := base.Strategy
		sc.Np = min(cfg.IntraNp, len(ests))
		return strategy.Generate(rng, sc, ests)
	}

	// A device whose clock barely advances would never fill the period;
	// past this many steps the round is a configuration error.
	const runaway = 100000
	plans := make([]strategy.Plan, len(groups))
	period := 0.0
	fill := func(d *device.Device) device.Partial { return d.FillPeriod(ctx, period, runaway+1) }
	for ; l.Next(base.MaxRounds); l.Rounds++ {
		period = 0
		for gi, g := range groups {
			p, err := groupPlan(g)
			if err != nil {
				return nil, err
			}
			plans[gi] = p
			period = max(period, p.SyncPeriod)
		}
		parts, ok := l.Train(l.All, fill)
		if !ok {
			break
		}
		for i, p := range parts {
			if p.Steps > runaway {
				return nil, fmt.Errorf("core: runaway local loop on device %d", l.All[i])
			}
		}
		loss := l.StepLoss(parts)
		l.Now += period

		var reps []int
		if strategy.GroupSchedule(l.Rounds+1, cfg.InterEvery) {
			// Inter-group sync (Fig. 2b): the freshest member of each
			// group forms a cross-group ring; the aggregate is broadcast
			// to every device. Ring and broadcast are charged to the
			// clock one after the other (pinned float order).
			for _, g := range groups {
				best := g[0]
				for _, id := range g {
					if c.Device(id).Version > c.Device(best).Version {
						best = id
					}
				}
				reps = append(reps, best)
			}
			sort.Ints(reps)
			l.Now += l.AllReduce(reps)
			l.Now += l.Spread(rng, reps, l.All, base.MergeBeta)
		} else {
			// Intra-group partial sync in every group independently; the
			// slowest group's communication (ring + broadcast, summed
			// before the max) gates the round clock. The last group's
			// aggregate stands in as Global between inter syncs.
			worst := 0.0
			for gi, g := range groups {
				sel := plans[gi].Selected
				worst = max(worst, l.AllReduce(sel)+l.Spread(rng, sel, g, base.MergeBeta))
			}
			l.Now += worst
		}
		l.Comm.Rounds++

		for _, d := range c.Devices {
			tracker.Observe(d.Cfg.ID, float64(d.Version))
		}
		// Selected reports the inter-group ring; nil on intra rounds.
		l.Record(loss, RoundInfo{Selected: reps})
	}
	return l.Result()
}
