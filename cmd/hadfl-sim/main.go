// hadfl-sim runs one training scheme on a simulated heterogeneous
// cluster and prints the training curve and summary.
//
// Examples:
//
//	hadfl-sim -scheme hadfl -powers 4,2,2,1 -epochs 30
//	hadfl-sim -scheme decentralized-fedavg -model vgg -noniid 0.3
//	hadfl-sim -scheme hadfl -csv curve.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"hadfl"
	"hadfl/internal/coordinator"
	"hadfl/internal/metrics"
)

// errBadFlags signals that the FlagSet already printed the problem and
// usage; main exits without re-printing.
var errBadFlags = errors.New("invalid command line")

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, errBadFlags) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// run writes results to out; flag errors and usage go to errOut.
func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("hadfl-sim", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		scheme = fs.String("scheme", hadfl.SchemeHADFL,
			"training scheme: "+strings.Join(hadfl.Schemes(), " | ")+" (or 'list' to print them)")
		model   = fs.String("model", "resnet", "resnet (residual) | vgg (plain)")
		powers  = fs.String("powers", "4,2,2,1", "comma-separated computing-power ratios")
		epochs  = fs.Float64("epochs", 30, "target dataset epochs")
		noniid  = fs.Float64("noniid", 0, "Dirichlet alpha for non-IID split (0 = IID)")
		full    = fs.Bool("full", false, "use the convolutional workload (slower)")
		seed    = fs.Int64("seed", 1, "random seed")
		csv     = fs.String("csv", "", "write the training curve to this CSV file")
		fail    = fs.String("fail", "", "failure schedule, e.g. '1=60,3=120' (device=virtual time)")
		verbose = fs.Bool("v", false, "print per-round progress")
		save    = fs.String("save", "", "persist the final model snapshot to this file")
		load    = fs.String("load", "", "skip training; evaluate a persisted snapshot instead")
		par     = fs.Int("parallelism", 0, "concurrent devices per round (0 = GOMAXPROCS, 1 = sequential; never changes results)")
		tpar    = fs.Int("tensor-workers", 0, "scoring replicas per evaluation (0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errBadFlags
	}

	if *scheme == "list" {
		// hadfl.Schemes drives this listing, in canonical order.
		for _, name := range hadfl.Schemes() {
			fmt.Fprintln(out, name)
		}
		return nil
	}
	pw, err := parsePowers(*powers)
	if err != nil {
		return err
	}
	failAt, err := parseFailures(*fail)
	if err != nil {
		return err
	}
	hadfl.SetComputeParallelism(*tpar)
	opts := hadfl.Options{
		Powers:       pw,
		Model:        *model,
		Full:         *full,
		TargetEpochs: *epochs,
		NonIIDAlpha:  *noniid,
		Seed:         *seed,
		FailAt:       failAt,
		Parallelism:  *par,
	}
	if err := opts.Validate(); err != nil {
		return err
	}
	if *load != "" {
		round, params, err := coordinator.ReadSnapshotFile(*load)
		if err != nil {
			return err
		}
		loss, acc, err := hadfl.EvaluateParams(opts, params)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "snapshot        : %s (round %d, %d params)\n", *load, round, len(params))
		fmt.Fprintf(out, "test loss       : %.4f\n", loss)
		fmt.Fprintf(out, "test accuracy   : %.2f%%\n", 100*acc)
		return nil
	}
	if *verbose {
		opts.OnRound = func(u hadfl.RoundUpdate) {
			extra := ""
			if u.Bypassed > 0 {
				extra = fmt.Sprintf("  bypassed=%d", u.Bypassed)
			}
			fmt.Fprintf(out, "round %3d  t=%8.1fs  loss=%.4f  acc=%5.1f%%  ring=%v%s\n",
				u.Round, u.Time, u.Loss, 100*u.Accuracy, u.Selected, extra)
		}
	}
	res, err := hadfl.RunScheme(*scheme, opts)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "scheme          : %s\n", res.Scheme)
	fmt.Fprintf(out, "model           : %s  powers %v\n", *model, opts.Powers)
	fmt.Fprintf(out, "max accuracy    : %.2f%%\n", 100*res.Accuracy)
	fmt.Fprintf(out, "time to max     : %.2f virtual s\n", res.Time)
	fmt.Fprintf(out, "rounds          : %d\n", res.Rounds)
	fmt.Fprintf(out, "device traffic  : %.2f MB\n", float64(res.DeviceBytes)/1e6)
	fmt.Fprintf(out, "server traffic  : %.2f MB\n", float64(res.ServerBytes)/1e6)

	if *save != "" {
		store := coordinator.NewModelStore(1)
		store.Save(res.Rounds, res.FinalParams)
		if err := store.WriteFile(*save); err != nil {
			return err
		}
		fmt.Fprintf(out, "snapshot saved  : %s\n", *save)
	}
	if *csv != "" {
		f, err := os.Create(*csv)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := metrics.WriteCSV(f, []*metrics.Series{res.Series}); err != nil {
			return err
		}
		fmt.Fprintf(out, "curve written   : %s (%d points)\n", *csv, res.Series.Len())
	}
	return nil
}

func parsePowers(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("invalid power %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFailures(s string) (map[int]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := map[int]float64{}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("invalid failure spec %q", part)
		}
		id, err1 := strconv.Atoi(strings.TrimSpace(kv[0]))
		at, err2 := strconv.ParseFloat(strings.TrimSpace(kv[1]), 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("invalid failure spec %q", part)
		}
		out[id] = at
	}
	return out, nil
}
