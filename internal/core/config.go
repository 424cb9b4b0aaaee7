package core

import "runtime"

// RunConfig is the scheme-independent slice of a training run's
// configuration — the fields every scheme (HADFL, the synchronous
// baselines, asyncfl) interprets the same way. Scheme configs embed it,
// so the façade assembles one RunConfig per run and overlays it onto
// each scheme's defaults with Apply.
type RunConfig struct {
	// TargetEpochs stops the run once this many dataset epochs have
	// been processed across devices.
	TargetEpochs float64
	// Seed drives every random choice in the run (selection, rings,
	// data order); runs are deterministic given their seed.
	Seed int64
	// Parallelism bounds how many simulated devices compute at once,
	// for every scheme — inside each synchronization phase, during
	// warm-up, and across asyncfl's overlapping cycles (0 = GOMAXPROCS,
	// 1 = sequential). It is a throughput knob only: per-device partials
	// join in a deterministic device order, so results are
	// byte-identical at every setting.
	Parallelism int
	// LocalSteps is the fixed per-round local-step budget E for the
	// schemes that use one (decentralized-fedavg pushes after E steps,
	// asyncfl pushes to the server after E steps). 0 means the scheme's
	// default; hadfl and distributed ignore it (HADFL derives local
	// steps from device power, distributed always runs one step per
	// iteration).
	LocalSteps int
	// GroupSize and InterEvery shape the hierarchical grouped scheme
	// (hadfl-grouped): the maximum devices per group and the inter-group
	// sync period in intra-group rounds. 0 means the scheme's default
	// (2 and 2); the non-hierarchical schemes ignore both. Unlike
	// Parallelism these change the result, so the façade includes them
	// in Canonical/Fingerprint.
	GroupSize  int
	InterEvery int
	// OnRound, when non-nil, receives telemetry after every
	// synchronization round (HADFL), gossip round (fedavg), evaluation
	// interval (distributed) or EvalEvery server updates (asyncfl). It
	// observes the run but never changes its outcome.
	OnRound func(RoundInfo)
}

// Workers resolves Parallelism to a device count.
func (c RunConfig) Workers() int {
	if c.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Parallelism
}

// Apply overlays the set fields of o onto c: zero values in o keep c's
// (usually default) value. This is how scheme implementations merge the
// façade's shared RunConfig into their Default*Config.
func (c *RunConfig) Apply(o RunConfig) {
	if o.TargetEpochs > 0 {
		c.TargetEpochs = o.TargetEpochs
	}
	if o.Seed != 0 {
		c.Seed = o.Seed
	}
	if o.Parallelism != 0 {
		c.Parallelism = o.Parallelism
	}
	if o.LocalSteps > 0 {
		c.LocalSteps = o.LocalSteps
	}
	if o.GroupSize > 0 {
		c.GroupSize = o.GroupSize
	}
	if o.InterEvery > 0 {
		c.InterEvery = o.InterEvery
	}
	if o.OnRound != nil {
		c.OnRound = o.OnRound
	}
}
