package hadfl

// Golden runs: the fixed point of the round-loop refactor. For every
// scheme the fixtures in testdata/golden_runs.json pin what
// the paper's comparisons rest on — the final model, every bit of the
// training curve (epoch, virtual time, loss, accuracy), the round
// count, the byte accounting and the OnRound stream — so a change to
// the shared loop that moves one float addition shows up as a named
// mismatch instead of a drifted headline number. Regenerate only on a
// deliberate behaviour change: go test -run TestGolden -update-golden .

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"

	"hadfl/internal/baselines"
	"hadfl/internal/core"
	"hadfl/internal/dataset"
	"hadfl/internal/metrics"
	"hadfl/internal/nn"
	"hadfl/internal/p2p"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_runs.json from the current code")

const goldenPath = "testdata/golden_runs.json"

// goldenRun is one pinned run. Floats are stored as the hex of their
// IEEE-754 bits, so the comparison is exact and a diff names the point.
type goldenRun struct {
	ParamsSHA256 string `json:"params_sha256"`
	Rounds       int    `json:"rounds"`
	DeviceBytes  int64  `json:"device_bytes"`
	// PerDeviceBytes and CommRounds are recorded by the core-level
	// table only (the façade exposes the byte total and Rounds).
	PerDeviceBytes []int64 `json:"per_device_bytes,omitempty"`
	CommRounds     int     `json:"comm_rounds,omitempty"`
	ServerBytes    int64   `json:"server_bytes"`
	// Points are "epoch:time:loss:accuracy" bit patterns, one per
	// curve point.
	Points        []string `json:"points"`
	Updates       int      `json:"updates"`
	UpdatesSHA256 string   `json:"updates_sha256"`
}

// goldenHash accumulates a canonical byte stream of ints and float bits.
type goldenHash struct{ buf []byte }

func (h *goldenHash) u64(v uint64)  { h.buf = binary.LittleEndian.AppendUint64(h.buf, v) }
func (h *goldenHash) int(v int)     { h.u64(uint64(int64(v))) }
func (h *goldenHash) f64(v float64) { h.u64(math.Float64bits(v)) }
func (h *goldenHash) ints(v []int) {
	h.int(len(v))
	for _, x := range v {
		h.int(x)
	}
}
func (h *goldenHash) sum() string {
	s := sha256.Sum256(h.buf)
	return hex.EncodeToString(s[:])
}

func goldenParamsHash(p []float64) string {
	var h goldenHash
	for _, v := range p {
		h.f64(v)
	}
	return h.sum()
}

func goldenPoints(s *metrics.Series) []string {
	out := make([]string, len(s.Points))
	for i, p := range s.Points {
		out[i] = fmt.Sprintf("%016x:%016x:%016x:%016x",
			math.Float64bits(p.Epoch), math.Float64bits(p.Time),
			math.Float64bits(p.Loss), math.Float64bits(p.Accuracy))
	}
	return out
}

// goldenFacadeCase is one Options setting run for every registered
// scheme, at Parallelism 1 and 4 against the same fixture (the
// determinism contract: Parallelism never changes a bit).
type goldenFacadeCase struct {
	name string
	opts Options
	// short keeps the case in -short mode.
	short bool
}

func goldenFacadeCases() []goldenFacadeCase {
	var cases []goldenFacadeCase
	for _, seed := range []int64{1, 7} {
		cases = append(cases,
			goldenFacadeCase{name: fmt.Sprintf("resnet-4221-seed%d", seed),
				opts: Options{Model: "resnet", Powers: []float64{4, 2, 2, 1}, TargetEpochs: 8, Seed: seed}},
			goldenFacadeCase{name: fmt.Sprintf("vgg-3311-seed%d", seed), short: seed == 7,
				opts: Options{Model: "vgg", Powers: []float64{3, 3, 1, 1}, TargetEpochs: 8, Seed: seed}},
		)
	}
	return append(cases,
		// Two devices die mid-run, in different rounds: bypass + fault
		// penalty, then replanning over the survivors.
		goldenFacadeCase{name: "failat", short: true, opts: Options{Powers: []float64{4, 2, 2, 1}, TargetEpochs: 12, Seed: 3,
			FailAt: map[int]float64{0: 30, 2: 50}}},
		// Two devices and this seed on purpose: unequal Dirichlet shards
		// make the epoch times near-coprime, and with four devices the
		// hyperperiod hits its 64× cap — one round of ~180 epochs, 12 s.
		goldenFacadeCase{name: "noniid", opts: Options{Powers: []float64{2, 1}, TargetEpochs: 8, Seed: 8,
			NonIIDAlpha: 1}},
		// Uneven groups (3+3+2) with a non-default inter-group period.
		goldenFacadeCase{name: "8dev-group3-inter3", opts: Options{Powers: []float64{4, 4, 2, 2, 2, 2, 1, 1}, TargetEpochs: 15, Seed: 2,
			GroupSize: 3, InterEvery: 3}},
		goldenFacadeCase{name: "powers-21", opts: Options{Powers: []float64{2, 1}, TargetEpochs: 6, Seed: 1}},
	)
}

func goldenFacadeRun(t *testing.T, scheme string, opts Options, par int) goldenRun {
	t.Helper()
	var h goldenHash
	n := 0
	opts.Parallelism = par
	opts.OnRound = func(u RoundUpdate) {
		n++
		h.buf = append(h.buf, u.Scheme...)
		h.int(u.Round)
		h.f64(u.Time)
		h.f64(u.Loss)
		h.f64(u.Accuracy)
		h.ints(u.Selected)
		h.int(u.Bypassed)
	}
	res, err := RunContext(context.Background(), scheme, opts)
	if err != nil {
		t.Fatal(err)
	}
	return goldenRun{
		ParamsSHA256:  goldenParamsHash(res.FinalParams),
		Rounds:        res.Rounds,
		DeviceBytes:   res.DeviceBytes,
		ServerBytes:   res.ServerBytes,
		Points:        goldenPoints(res.Series),
		Updates:       n,
		UpdatesSHA256: h.sum(),
	}
}

// goldenCoreSpec is a small jitter-capable federation for the paths
// the façade cannot reach (it never sets Jitter, DeviceLinks,
// SelectOverride, MergeBeta or IntraNp).
func goldenCoreSpec(gc goldenCoreCase) core.ClusterSpec {
	full := dataset.Synthetic(dataset.SyntheticConfig{
		Samples: 1200, Features: 16, Classes: 5, ModesPerClass: 2, NoiseStd: 0.4, Seed: 11,
	})
	train, test := full.Split(1000)
	return core.ClusterSpec{
		Powers:       gc.powers,
		BaseStepTime: 1,
		Jitter:       gc.jitter,
		FailAt:       gc.failAt,
		Arch: func(rng *rand.Rand) *nn.Model {
			return nn.NewMLP(rng, 16, []int{24}, 5)
		},
		Train: train, Test: test,
		BatchSize: 20,
		LR:        0.1, Momentum: 0.9,
		Seed: 11,
	}
}

type goldenCoreCase struct {
	name   string
	powers []float64
	jitter float64
	failAt map[int]float64
	run    func(ctx context.Context, c *core.Cluster, rc core.RunConfig) (*core.Result, error)
}

func goldenCoreCases() []goldenCoreCase {
	p4 := []float64{4, 2, 2, 1}
	hadflWith := func(mut func(*core.Config)) func(context.Context, *core.Cluster, core.RunConfig) (*core.Result, error) {
		return func(ctx context.Context, c *core.Cluster, rc core.RunConfig) (*core.Result, error) {
			cfg := core.DefaultConfig()
			cfg.MaxRounds = 200
			cfg.Apply(rc)
			mut(&cfg)
			return core.RunHADFL(ctx, c, cfg)
		}
	}
	groupedWith := func(mut func(*core.GroupedConfig)) func(context.Context, *core.Cluster, core.RunConfig) (*core.Result, error) {
		return func(ctx context.Context, c *core.Cluster, rc core.RunConfig) (*core.Result, error) {
			cfg := core.DefaultGroupedConfig()
			cfg.Base.MaxRounds = 200
			cfg.Base.Apply(rc)
			mut(&cfg)
			return core.RunHADFLGrouped(ctx, c, cfg)
		}
	}
	return []goldenCoreCase{
		// Jitter draws from each device's RNG in StepTime, so these pin
		// the exact number and order of StepTime calls per scheme.
		{"hadfl-jitter", p4, 0.2, nil, hadflWith(func(*core.Config) {})},
		{"grouped-jitter", p4, 0.2, nil, groupedWith(func(*core.GroupedConfig) {})},
		{"fedavg-jitter", p4, 0.2, nil, func(ctx context.Context, c *core.Cluster, rc core.RunConfig) (*core.Result, error) {
			cfg := baselines.DefaultFedAvgConfig()
			cfg.Apply(rc)
			return baselines.RunFedAvg(ctx, c, cfg)
		}},
		{"distributed-jitter", p4, 0.2, nil, func(ctx context.Context, c *core.Cluster, rc core.RunConfig) (*core.Result, error) {
			cfg := baselines.DefaultDistributedConfig()
			cfg.Apply(rc)
			return baselines.RunDistributed(ctx, c, cfg)
		}},
		{"asyncfl-jitter", p4, 0.2, nil, func(ctx context.Context, c *core.Cluster, rc core.RunConfig) (*core.Result, error) {
			cfg := baselines.DefaultAsyncFLConfig()
			cfg.Apply(rc)
			return baselines.RunAsyncFL(ctx, c, cfg)
		}},
		{"hadfl-devicelinks", p4, 0, nil, hadflWith(func(cfg *core.Config) {
			cfg.DeviceLinks = map[int]p2p.Link{
				1: {Latency: 0.05, Bandwidth: 1e6},
				3: {Latency: 0.2, Bandwidth: 2e5},
			}
		})},
		// The override draws from the scheme RNG, so the fixture also
		// pins where in the round it is consulted; the late mass failure
		// leaves fewer alive devices than Np.
		{"hadfl-selectoverride", p4, 0, map[int]float64{0: 60, 1: 60, 2: 60}, hadflWith(func(cfg *core.Config) {
			cfg.SelectOverride = func(rng *rand.Rand, alive []int, versions map[int]float64, np int) []int {
				perm := rng.Perm(len(alive))
				out := make([]int, 0, np)
				for _, i := range perm[:np] {
					out = append(out, alive[i])
				}
				sort.Ints(out)
				return out
			}
		})},
		// Three of four die together: rings with every member dead
		// (penalty charged, no aggregate, no curve point) and then a
		// one-device federation.
		{"hadfl-massfail", p4, 0, map[int]float64{0: 25, 1: 25, 2: 25}, hadflWith(func(*core.Config) {})},
		{"hadfl-mergebeta", p4, 0, nil, hadflWith(func(cfg *core.Config) { cfg.MergeBeta = 0.5 })},
		{"grouped-mergebeta", p4, 0, nil, groupedWith(func(cfg *core.GroupedConfig) { cfg.Base.MergeBeta = 0.5 })},
		// 3+3+1: the singleton group clamps IntraNp to its size.
		{"grouped-intranp2", []float64{4, 3, 2, 2, 1, 1, 1}, 0, nil, groupedWith(func(cfg *core.GroupedConfig) {
			cfg.GroupSize = 3
			cfg.IntraNp = 2
			cfg.InterEvery = 3
		})},
	}
}

func goldenCoreRun(t *testing.T, gc goldenCoreCase, par int) goldenRun {
	t.Helper()
	c, err := core.BuildCluster(goldenCoreSpec(gc))
	if err != nil {
		t.Fatal(err)
	}
	var h goldenHash
	n := 0
	rc := core.RunConfig{TargetEpochs: 14, Seed: 11, Parallelism: par, OnRound: func(ri core.RoundInfo) {
		n++
		h.int(ri.Round)
		h.f64(ri.Time)
		h.f64(ri.Loss)
		h.f64(ri.Accuracy)
		h.ints(ri.Selected)
		h.int(ri.Bypassed)
		ids := make([]int, 0, len(ri.LocalSteps))
		for id := range ri.LocalSteps {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			h.int(id)
			h.int(ri.LocalSteps[id])
		}
	}}
	res, err := gc.run(context.Background(), c, rc)
	if err != nil {
		t.Fatal(err)
	}
	per := make([]int64, len(gc.powers))
	for id := range per {
		per[id] = res.Comm.DeviceBytes[id]
	}
	return goldenRun{
		ParamsSHA256:   goldenParamsHash(res.FinalParams),
		Rounds:         res.Rounds,
		DeviceBytes:    res.Comm.TotalDeviceBytes(),
		PerDeviceBytes: per,
		CommRounds:     res.Comm.Rounds,
		ServerBytes:    res.Comm.ServerBytes,
		Points:         goldenPoints(res.Series),
		Updates:        n,
		UpdatesSHA256:  h.sum(),
	}
}

func TestGoldenRuns(t *testing.T) {
	want := map[string]goldenRun{}
	if !*updateGolden {
		raw, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("%v (generate with -update-golden)", err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	// -short (the -race slice of make ci) keeps the concurrent join on
	// every scheme and the whole core table, and drops the rest of the
	// façade grid: under the race detector the full table takes minutes.
	short := testing.Short() && !*updateGolden
	pars := []int{1, 4}
	if short {
		pars = []int{4}
	}
	ran := map[string]bool{}
	check := func(t *testing.T, key string, run func(par int) goldenRun) {
		ran[key] = true
		for _, par := range pars {
			got := run(par)
			w, ok := want[key]
			if !ok {
				if !*updateGolden {
					t.Fatalf("%s: no fixture (generate with -update-golden)", key)
				}
				want[key] = got // later Parallelism values must reproduce it
				continue
			}
			goldenDiff(t, fmt.Sprintf("%s (Parallelism %d)", key, par), w, got)
		}
	}
	for _, scheme := range Schemes() {
		for _, fc := range goldenFacadeCases() {
			if short && !fc.short {
				continue
			}
			scheme, fc := scheme, fc
			key := "facade/" + scheme + "/" + fc.name
			t.Run(key, func(t *testing.T) {
				check(t, key, func(par int) goldenRun { return goldenFacadeRun(t, scheme, fc.opts, par) })
			})
		}
	}
	for _, gc := range goldenCoreCases() {
		gc := gc
		key := "core/" + gc.name
		t.Run(key, func(t *testing.T) {
			check(t, key, func(par int) goldenRun { return goldenCoreRun(t, gc, par) })
		})
	}
	if *updateGolden && !t.Failed() {
		raw, err := json.MarshalIndent(want, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fixtures to %s", len(want), goldenPath)
	}
	if !short {
		for key := range want {
			if !ran[key] {
				t.Errorf("fixture %s matches no case (stale entry)", key)
			}
		}
	}
}

// goldenDiff reports the first differing field by name, so a float
// moved by the refactor points at its round.
func goldenDiff(t *testing.T, key string, want, got goldenRun) {
	t.Helper()
	if want.Rounds != got.Rounds || want.CommRounds != got.CommRounds {
		t.Errorf("%s: rounds %d (comm %d), want %d (comm %d)", key, got.Rounds, got.CommRounds, want.Rounds, want.CommRounds)
	}
	if len(want.Points) != len(got.Points) {
		t.Errorf("%s: %d curve points, want %d", key, len(got.Points), len(want.Points))
	}
	for i := 0; i < len(want.Points) && i < len(got.Points); i++ {
		if want.Points[i] != got.Points[i] {
			t.Errorf("%s: curve point %d (epoch:time:loss:acc bits)\n got %s\nwant %s", key, i, got.Points[i], want.Points[i])
			break
		}
	}
	if want.DeviceBytes != got.DeviceBytes || want.ServerBytes != got.ServerBytes ||
		!reflect.DeepEqual(want.PerDeviceBytes, got.PerDeviceBytes) {
		t.Errorf("%s: bytes device=%d %v server=%d, want device=%d %v server=%d", key,
			got.DeviceBytes, got.PerDeviceBytes, got.ServerBytes,
			want.DeviceBytes, want.PerDeviceBytes, want.ServerBytes)
	}
	if want.Updates != got.Updates || want.UpdatesSHA256 != got.UpdatesSHA256 {
		t.Errorf("%s: OnRound stream %d updates %s, want %d updates %s", key,
			got.Updates, got.UpdatesSHA256, want.Updates, want.UpdatesSHA256)
	}
	if want.ParamsSHA256 != got.ParamsSHA256 {
		t.Errorf("%s: FinalParams %s, want %s", key, got.ParamsSHA256, want.ParamsSHA256)
	}
}

// TestGoldenConvRuns pins the convolutional profile, which the fixture
// table above never runs (its cases are the fast MLP profile): a short
// Full hadfl run per conv model, through warm-up training and the
// evaluator's scoring of the result. The hashes are literals, not a
// regenerated fixture — a convolution kernel that moves one addition
// fails here, and no flag rewrites them.
func TestGoldenConvRuns(t *testing.T) {
	for _, tc := range []struct {
		model, params, points string
	}{
		{"resnet", "1a12ff7f81bef816a8f2b5443dc69d0243a60da093b05170ea32d231ca8ee2b3",
			"c170c2634ae130e665ea1895f4adaeaabcc5fcebf5598bb0e558a6ba3e69c340"},
		{"vgg", "a243b050cb783180deb974cb3bc822e32aa2ad48688b2338524c0534e5611d79",
			"7c06f4880ee3c537f8c6ad825cb0c7a2c7d376a37dd7e9e9c5c365bbf57d4322"},
	} {
		res, err := RunContext(context.Background(), "hadfl", Options{Model: tc.model, Full: true, TargetEpochs: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		if got := goldenParamsHash(res.FinalParams); got != tc.params {
			t.Errorf("%s: FinalParams %s, want %s", tc.model, got, tc.params)
		}
		var h goldenHash
		for _, p := range goldenPoints(res.Series) {
			h.buf = append(h.buf, p...)
		}
		if got := h.sum(); got != tc.points {
			t.Errorf("%s: %d curve points hash to %s, want %s", tc.model, len(res.Series.Points), got, tc.points)
		}
	}
}
