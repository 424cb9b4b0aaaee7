package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"hadfl"
	"hadfl/internal/dataset"
)

// trainSpec describes one of the in-process training workloads: a fixed
// list of (scheme, model, powers) runs, executed one at a time through
// hadfl.RunContext with façade defaults, in whole passes.
type trainSpec struct {
	name    string
	suffix  string // names this workload's per-layer metrics
	full    bool   // convolutional profile
	epochs  float64
	schemes []string // nil = every registered scheme
	models  []string
	powers  [][]float64
	// quickModels and quickPowers cut the list for -quick runs.
	quickModels []string
	quickPowers [][]float64
	// warmEpochs sizes the warm-up run that set-up performs per model.
	warmEpochs float64
	// floor is the accuracy a run of the scheme on the model must
	// exceed: at most two thirds of the lowest accuracy the
	// configuration reached on 40 to 60 seeds × its powers (the
	// "lowest seen" below). Guessing among the ten classes scores 0.10.
	floor func(scheme, model string) float64
	// trainSamples converts curve epochs into samples consumed.
	trainSamples int
}

// trainMLP is the paper-reproduction path (Table I / Fig. 3) on the
// fast profile: every registered scheme × both model families × both of
// the paper's heterogeneity distributions. The paper's budget is 50
// epochs; 5 keep one pass of the twenty runs under four seconds, so a
// window holds several passes, while every run still crosses at least
// two synchronization rounds.
var trainMLP = trainSpec{
	name: wlTrainMLP, suffix: "mlp", epochs: 5,
	models:      []string{"resnet", "vgg"},
	powers:      [][]float64{{4, 2, 2, 1}, {3, 3, 1, 1}},
	quickModels: []string{"resnet"},
	quickPowers: [][]float64{{4, 2, 2, 1}},
	warmEpochs:  1,
	floor: func(_, model string) float64 {
		if model == "vgg" {
			return 0.18 // lowest seen: asyncfl, 0.31
		}
		return 0.30 // lowest seen: asyncfl, 0.47
	},
	trainSamples: dataset.DefaultSynthetic().Samples * 4 / 5,
}

// trainConv runs the convolutional profile (ResNetTiny, VGGTiny) for
// one epoch under the three schemes of Table I at the façade's default
// powers and parallelism: im2col, large matrix products and the
// parallel device and kernel paths.
var trainConv = trainSpec{
	name: wlTrainConv, suffix: "conv", full: true, epochs: 1,
	schemes:     []string{hadfl.SchemeHADFL, hadfl.SchemeFedAvg, hadfl.SchemeDistributed},
	models:      []string{"resnet", "vgg"},
	powers:      [][]float64{nil},
	quickModels: []string{"vgg"},
	quickPowers: [][]float64{nil},
	warmEpochs:  0.25,
	floor: func(scheme, model string) float64 {
		switch {
		case scheme == hadfl.SchemeDistributed && model == "resnet":
			// After one epoch the synchronous baseline can still be
			// guessing on ResNetTiny (0.1025 on one seed in forty):
			// no floor tells that from a broken run, so this
			// configuration is held to the other checks only.
			return 0
		case scheme == hadfl.SchemeDistributed:
			return 0.2 // lowest seen 0.39
		case model == "vgg":
			return 0.6 // lowest seen 0.995
		default:
			return 0.3 // lowest seen: hadfl, 0.56
		}
	},
	trainSamples: dataset.DefaultImages().Samples * 4 / 5,
}

// trainRun is one entry of the job list.
type trainRun struct {
	scheme string
	opts   hadfl.Options
	group  int // runs of one group share model, powers and seed
}

// jobs derives the list from the workload seed. The schemes of one
// (model, powers) group share a seed, so they train on the same data
// from the same initial model and their curves can be compared.
func (s trainSpec) jobs(seed int64, quick bool) []trainRun {
	schemes, models, powers := s.schemes, s.models, s.powers
	if schemes == nil {
		schemes = hadfl.Schemes()
	}
	if quick {
		models, powers = s.quickModels, s.quickPowers
	}
	rng := rand.New(rand.NewSource(seed))
	var runs []trainRun
	group := 0
	for _, m := range models {
		for _, p := range powers {
			groupSeed := 1 + rng.Int63n(1<<31)
			for _, sc := range schemes {
				runs = append(runs, trainRun{scheme: sc, group: group, opts: hadfl.Options{
					Powers: p, Model: m, Full: s.full, TargetEpochs: s.epochs, Seed: groupSeed,
				}})
			}
			group++
		}
	}
	return runs
}

// warmUp is what set-up does once per model: a two-device run that
// generates the dataset, builds a cluster and trains briefly, so that
// first-use costs are paid before the timed section.
func (s trainSpec) warmUp(ctx context.Context, seed int64) error {
	for _, m := range s.models {
		_, err := hadfl.RunContext(ctx, hadfl.SchemeHADFL, hadfl.Options{
			Powers: []float64{2, 1}, Model: m, Full: s.full, TargetEpochs: s.warmEpochs, Seed: seed,
		})
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", m, err)
		}
	}
	return nil
}

// runTrain executes whole passes of the job list until the window is
// used up (to the nearest pass, at least one), timing every RunContext
// call.
func runTrain(ctx context.Context, e *runEnv, spec trainSpec) (*outcome, error) {
	out := &outcome{Workload: spec.name, Notes: make(map[string]any)}
	runs := spec.jobs(e.seed, e.quick)

	var err error
	out.SetupS, err = measureSetup(e.setups, func(int) error { return spec.warmUp(ctx, e.seed) }, func() {})
	if err != nil {
		return nil, err
	}

	wantParams := make(map[string]int)
	for _, m := range spec.models {
		init, err := hadfl.InitialParams(hadfl.Options{Model: m, Full: spec.full, Seed: e.seed})
		if err != nil {
			return nil, err
		}
		wantParams[m] = len(init)
	}

	var (
		walls     []float64 // every call, seconds
		byConfig  = make([][]float64, len(runs))
		byScheme  = map[string][]float64{}
		gaps      []float64 // between OnRound callbacks
		callbacks int
		samples   float64
		evalS     float64
		first     = make([]*hadfl.Result, len(runs)) // first pass's results
		hashes    = make([]string, len(runs))
		mismatch  int
	)
	windowStart := time.Now()
	passes := 0
	for {
		passStart := time.Now()
		for i, r := range runs {
			opts := r.opts
			var stamps []time.Time
			if e.rec != nil {
				opts.OnRound = func(hadfl.RoundUpdate) { stamps = append(stamps, time.Now()) }
			}
			t0 := time.Now()
			res, err := hadfl.RunContext(ctx, r.scheme, opts)
			t1 := time.Now()
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				out.Attempted++
				out.fail("%s: %v", goldenKey(r.scheme, r.opts), err)
				continue
			}
			wall := t1.Sub(t0).Seconds()
			walls = append(walls, wall)
			byConfig[i] = append(byConfig[i], wall)
			byScheme[r.scheme] = append(byScheme[r.scheme], wall)
			samples += res.Series.Points[res.Series.Len()-1].Epoch * float64(spec.trainSamples)
			evalS += res.EvalSeconds

			key := goldenKey(r.scheme, r.opts)
			out.Attempted++
			hash := paramsHash(res.FinalParams)
			if err := checkResult(res, wantParams[r.opts.Model], spec.floor(r.scheme, r.opts.Model)); err != nil {
				out.fail("%s: %v", key, err)
			} else if hashes[i] != "" && hashes[i] != hash {
				out.fail("%s: pass %d produced different parameters than pass 1", key, passes+1)
			}
			if first[i] == nil {
				first[i], hashes[i] = res, hash
				if e.golden.mismatch(spec.name, key, hash) {
					mismatch++
					fmt.Fprintf(os.Stderr, "benchmark: %s: golden mismatch: %s\n", spec.name, key)
				}
			}

			if e.rec != nil {
				id := e.rec.reserve()
				for j := 1; j < len(stamps); j++ {
					e.rec.add(id, key, "core.round", "round", stamps[j-1], stamps[j])
					gaps = append(gaps, stamps[j].Sub(stamps[j-1]).Seconds())
				}
				callbacks += len(stamps)
				e.rec.finish(id, 0, key, "hadfl.run", r.scheme, t0, t1)
			}
			// Every run starts from a collected heap, as it would in a
			// fresh process: otherwise how many dead clusters pile up
			// before the collector gets to them decides peak_rss_mb,
			// which then swings by a third between runs of one commit.
			runtime.GC()
		}
		passes++
		passDur := time.Since(passStart)
		if time.Since(windowStart)+passDur/2 > e.window {
			break
		}
	}
	elapsed := time.Since(windowStart).Seconds()
	if out.Failed > 0 && len(walls) == 0 {
		return out, fmt.Errorf("every run failed: %s", out.Failures[0])
	}

	// A percentile over the mixed list would name the slowest scheme,
	// not a slow run, so the tail of a training workload is the median
	// wall time of its slowest configuration.
	slowest := 0.0
	for _, w := range byConfig {
		if len(w) > 0 {
			slowest = max(slowest, median(w))
		}
	}
	out.Latency = latencySummary{N: len(walls), P50: median(walls), Tail: slowest, TailPct: 100}
	out.Goodput = samples / sum(walls)
	out.Load = tally{Sent: out.Attempted, OK: out.Attempted - out.Failed, Failed: out.Failed,
		Elapsed: time.Duration(elapsed * float64(time.Second))}
	if out.PeakRSSMB, err = peakRSSMB(os.Getpid()); err != nil {
		return nil, err
	}
	out.Notes["passes"] = passes
	out.Notes["runs_per_pass"] = len(runs)
	out.Notes["window_s"] = elapsed

	if e.rec != nil {
		out.Layer = map[string]float64{
			"hadfl.golden_mismatches":               float64(mismatch),
			"hadfl.samples_per_s." + spec.suffix:    out.Goodput,
			"hadfl.round_wall_p50_s." + spec.suffix: median(gaps),
			"hadfl.rounds_per_run." + spec.suffix:   float64(callbacks) / float64(len(walls)),
			"eval.share." + spec.suffix:             evalS / sum(walls),
		}
		if spec.full {
			out.Layer["hadfl.run_wall_p50_s.conv"] = median(walls)
		} else {
			for _, s := range hadfl.Schemes() {
				out.Layer["hadfl.scheme."+s+".run_wall_p50_s"] = median(byScheme[s])
			}
			out.Layer["hadfl.speedup_vs_fedavg"], out.Layer["hadfl.final_accuracy"] = paperQuantities(runs, first)
		}
	}
	return out, nil
}

// paperQuantities returns the paper's Table I quantity — how much
// sooner, in virtual time, HADFL reaches the highest accuracy both it
// and Decentralized-FedAvg reach — and HADFL's maximum test accuracy,
// each as the median over the (model, powers) groups. Both repeat
// exactly for a given seed, so any drift means the arithmetic changed.
func paperQuantities(runs []trainRun, results []*hadfl.Result) (speedup, accuracy float64) {
	byGroup := make(map[int]map[string]*hadfl.Result)
	for i, r := range runs {
		if results[i] == nil {
			continue
		}
		if byGroup[r.group] == nil {
			byGroup[r.group] = make(map[string]*hadfl.Result)
		}
		byGroup[r.group][r.scheme] = results[i]
	}
	var speedups, accs []float64
	for _, g := range byGroup {
		h, f := g[hadfl.SchemeHADFL], g[hadfl.SchemeFedAvg]
		if h == nil || f == nil {
			continue
		}
		accs = append(accs, h.Accuracy)
		if s, ok := hadfl.Speedup(h, f, min(h.Accuracy, f.Accuracy)); ok {
			speedups = append(speedups, s)
		}
	}
	if len(speedups) == 0 {
		// No group in which both schemes reached a common accuracy
		// after time zero.
		return 0, median(accs)
	}
	return median(speedups), median(accs)
}
