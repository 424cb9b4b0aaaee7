package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestQuickSmoke runs every workload once at -quick size with tracing
// off, and one traced run, against the real binaries, and requires
// every named metric to be present and finite with no failed check.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and runs for about a minute")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	binDir := filepath.Join(root, ".bench_build", "bin")
	if err := buildBinaries(ctx, root, binDir); err != nil {
		t.Fatal(err)
	}
	golden, err := loadGolden(filepath.Join(root, "benchmark", "golden"), false)
	if err != nil {
		t.Fatal(err)
	}
	base := runEnv{
		binDir: binDir, seed: 1,
		window: quickWindow,
		nproc:  runtime.NumCPU(), quick: true, setups: 1, golden: golden,
	}
	check := func(t *testing.T, rep report, defs []metricDef) {
		t.Helper()
		if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted < 1 {
			t.Errorf("result: correct %v, attempted %d, failed %d", rep.Result.Correct, rep.Result.Attempted, rep.Result.Failed)
			for _, o := range rep.Outcomes {
				t.Log(o.Workload, o.Failures)
			}
		}
		if len(rep.Result.Metrics) != len(defs) {
			t.Errorf("%d metrics printed, %d named", len(rep.Result.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := rep.Result.Metrics[d.Name]
			if !ok {
				t.Errorf("metric %s missing", d.Name)
				continue
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
				t.Errorf("metric %s = %v %q, want a finite value in %q", d.Name, m.Value, m.Unit, d.Unit)
			}
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep := report{Workload: w.name}
			if err := endToEndRun(ctx, base, w, &rep); err != nil {
				t.Fatal(err)
			}
			check(t, rep, endToEnd)
			for _, d := range endToEnd {
				if rep.Result.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want it positive", d.Name, rep.Result.Metrics[d.Name].Value)
				}
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		w, _ := workloadByName(wlDispatch)
		rep := report{Workload: w.name, Traced: true}
		outDir := t.TempDir()
		if err := tracedRun(ctx, base, w, &rep, outDir); err != nil {
			t.Fatal(err)
		}
		check(t, rep, perLayer())
		for _, o := range rep.Outcomes {
			if o.Workload == wlDispatch && (o.Reconcile == nil || !o.Reconcile.OK) {
				t.Errorf("reconciliation: %+v", o.Reconcile)
			}
		}
		if got := rep.Result.Metrics["hadfl.golden_mismatches"].Value; got != 0 {
			t.Errorf("hadfl.golden_mismatches = %v on the default seed", got)
		}
		if info, err := os.Stat(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil || info.Size() == 0 {
			t.Errorf("trace file: %v", err)
		}
	})
}
