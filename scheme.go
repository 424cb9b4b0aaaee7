package hadfl

// The scheme set: a closed, ordered table of the five training schemes
// this package implements — HADFL, its hierarchical grouped variant,
// the paper's two synchronous baselines, and the async-FL related-work
// scheme. Each drives a core.Cluster to a core.Result, and everything
// scheme-shaped in the public API — RunScheme, Schemes, ValidScheme,
// Fingerprint, Compare, the serve layer's listing, the CLIs — derives
// from this table.

import (
	"context"
	"fmt"
	"sort"

	"hadfl/internal/baselines"
	"hadfl/internal/core"
)

// Scheme names, one per training scheme.
const (
	SchemeHADFL        = "hadfl"
	SchemeFedAvg       = "decentralized-fedavg"
	SchemeDistributed  = "distributed"
	SchemeAsyncFL      = "asyncfl"
	SchemeHADFLGrouped = "hadfl-grouped"
)

// schemeRun trains on the cluster under the shared run configuration.
// It honors ctx (returning ctx.Err() within about one device step of
// cancellation), is deterministic given cfg.Seed, and treats
// cfg.Parallelism and cfg.OnRound as pure throughput/observability
// knobs that never change the result, since Canonical/Fingerprint
// exclude them when content-addressing results.
type schemeRun func(ctx context.Context, c *core.Cluster, cfg core.RunConfig) (*core.Result, error)

// schemes is the scheme table in the canonical paper order Schemes
// reports. Each entry overlays the façade's shared RunConfig onto its
// Default*Config via core.RunConfig.Apply, so unset fields keep the
// paper-profile defaults.
var schemes = []struct {
	name string
	run  schemeRun
}{
	{SchemeHADFL, func(ctx context.Context, c *core.Cluster, rc core.RunConfig) (*core.Result, error) {
		cfg := core.DefaultConfig()
		cfg.Apply(rc)
		return core.RunHADFL(ctx, c, cfg)
	}},
	{SchemeFedAvg, func(ctx context.Context, c *core.Cluster, rc core.RunConfig) (*core.Result, error) {
		cfg := baselines.DefaultFedAvgConfig()
		cfg.Apply(rc)
		return baselines.RunFedAvg(ctx, c, cfg)
	}},
	{SchemeDistributed, func(ctx context.Context, c *core.Cluster, rc core.RunConfig) (*core.Result, error) {
		cfg := baselines.DefaultDistributedConfig()
		cfg.Apply(rc)
		return baselines.RunDistributed(ctx, c, cfg)
	}},
	{SchemeAsyncFL, func(ctx context.Context, c *core.Cluster, rc core.RunConfig) (*core.Result, error) {
		cfg := baselines.DefaultAsyncFLConfig()
		cfg.Apply(rc)
		return baselines.RunAsyncFL(ctx, c, cfg)
	}},
	{SchemeHADFLGrouped, func(ctx context.Context, c *core.Cluster, rc core.RunConfig) (*core.Result, error) {
		cfg := core.DefaultGroupedConfig()
		cfg.Base.Apply(rc)
		return core.RunHADFLGrouped(ctx, c, cfg)
	}},
}

// lookupScheme resolves a scheme by name.
func lookupScheme(name string) (schemeRun, bool) {
	for _, s := range schemes {
		if s.name == name {
			return s.run, true
		}
	}
	return nil, false
}

// Schemes returns the scheme names in canonical order: hadfl,
// decentralized-fedavg, distributed, asyncfl, hadfl-grouped.
func Schemes() []string {
	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = s.name
	}
	return names
}

// ValidScheme reports whether name is one of the schemes.
func ValidScheme(name string) bool {
	_, ok := lookupScheme(name)
	return ok
}

// unknownSchemeError names the known schemes so a typo'd request is
// self-correcting at the CLI and HTTP layers.
func unknownSchemeError(name string) error {
	known := Schemes()
	sort.Strings(known)
	return fmt.Errorf("hadfl: unknown scheme %q (registered: %v)", name, known)
}
