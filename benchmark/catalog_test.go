package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricJSON
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is the contract later changes are measured against;
// the program must print exactly the metrics it names.
func TestCatalogMatchesJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}

	compare := func(kind string, got []metricJSON, want []metricDef) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		seen := make(map[string]bool)
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s[%d]: name %q or unit %q outside the allowed characters", kind, i, g.Name, g.Unit)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s[%d]: better = %q", kind, i, g.Better)
			}
			if seen[g.Name] {
				t.Errorf("%s: %s listed twice", kind, g.Name)
			}
			seen[g.Name] = true
		}
	}
	var e2e []metricJSON
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, m.metricJSON)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	compare("end_to_end", e2e, endToEnd)
	compare("per_layer", doc.PerLayer, perLayer())
	if len(doc.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(doc.PerLayer))
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
}
