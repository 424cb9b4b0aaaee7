package hadfl

import (
	"strings"
	"testing"
)

func TestValidateAcceptsDefaults(t *testing.T) {
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero options invalid: %v", err)
	}
	if err := fastOpts(1).Validate(); err != nil {
		t.Fatalf("fast options invalid: %v", err)
	}
}

func TestValidateRejectsBadOptions(t *testing.T) {
	cases := map[string]Options{
		"negative power": {Powers: []float64{4, -1}},
		"zero power":     {Powers: []float64{0, 1}},
		"bad model":      {Model: "transformer"},
		"neg epochs":     {TargetEpochs: -3},
		"neg alpha":      {NonIIDAlpha: -0.5},
		"fail id range":  {FailAt: map[int]float64{9: 10}},
		"neg fail time":  {FailAt: map[int]float64{1: -1}},
		"neg group size": {GroupSize: -2},
		"neg inter":      {InterEvery: -1},
	}
	for name, opts := range cases {
		if err := opts.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCanonicalNormalizesDefaults(t *testing.T) {
	// The zero value and the explicitly-filled defaults agree.
	explicit := Options{Powers: []float64{4, 2, 2, 1}, Model: "resnet", Seed: 1}
	if got, want := (Options{}).Canonical(), explicit.Canonical(); got != want {
		t.Fatalf("canonical mismatch:\n%s\n%s", got, want)
	}
	// OnRound does not change the canonical form.
	withCB := explicit
	withCB.OnRound = func(RoundUpdate) {}
	if withCB.Canonical() != explicit.Canonical() {
		t.Fatal("OnRound leaked into canonical form")
	}
	// The failure schedule is order-independent (map iteration).
	a := Options{FailAt: map[int]float64{3: 50, 1: 20}}
	if !strings.Contains(a.Canonical(), "fail={1=20,3=50}") {
		t.Fatalf("canonical = %s", a.Canonical())
	}
}

func TestFingerprintDistinguishesRuns(t *testing.T) {
	base := fastOpts(1)
	fp1, err := Fingerprint(SchemeHADFL, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(fp1) != 64 {
		t.Fatalf("fingerprint %q not a sha256 hex", fp1)
	}
	fp2, _ := Fingerprint(SchemeHADFL, fastOpts(1))
	if fp1 != fp2 {
		t.Fatal("identical options produced different fingerprints")
	}
	for name, alt := range map[string]func() (string, Options){
		"scheme": func() (string, Options) { return SchemeFedAvg, base },
		"seed":   func() (string, Options) { o := base; o.Seed = 2; return SchemeHADFL, o },
		"epochs": func() (string, Options) { o := base; o.TargetEpochs = 9; return SchemeHADFL, o },
		"powers": func() (string, Options) { o := base; o.Powers = []float64{4, 2, 2, 2}; return SchemeHADFL, o },
		"model":  func() (string, Options) { o := base; o.Model = "vgg"; return SchemeHADFL, o },
		"group":  func() (string, Options) { o := base; o.GroupSize = 3; return SchemeHADFL, o },
		"inter":  func() (string, Options) { o := base; o.InterEvery = 4; return SchemeHADFL, o },
	} {
		scheme, opts := alt()
		fp, err := Fingerprint(scheme, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fp == fp1 {
			t.Errorf("%s: fingerprint collision", name)
		}
	}
}

// TestGroupedKnobsFingerprintAndResults pins the ROADMAP contract for
// the exposed hierarchy knobs: distinct GroupSize/InterEvery values
// produce distinct canonical forms and fingerprints (so the serve cache
// keeps one entry per setting), and the hadfl-grouped scheme actually
// consumes them — a different grouping trains a different trajectory.
func TestGroupedKnobsFingerprintAndResults(t *testing.T) {
	base := fastOpts(1)
	seen := map[string]string{}
	for _, knobs := range []struct{ group, inter int }{
		{0, 0}, {2, 2}, {3, 2}, {2, 4}, {4, 1},
	} {
		o := base
		o.GroupSize, o.InterEvery = knobs.group, knobs.inter
		canon := o.Canonical()
		fp, err := Fingerprint(SchemeHADFLGrouped, o)
		if err != nil {
			t.Fatalf("group=%d inter=%d: %v", knobs.group, knobs.inter, err)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("fingerprint collision between %q and %q", prev, canon)
		}
		seen[fp] = canon
	}

	if testing.Short() {
		t.Skip("skipping grouped-knob training runs in -short mode")
	}
	// One big group that never inter-syncs vs the default pairs-of-2:
	// the trajectories must differ (the knob reaches the scheme), while
	// re-running identical knobs reproduces byte-identical results.
	def, err := RunScheme(SchemeHADFLGrouped, base)
	if err != nil {
		t.Fatal(err)
	}
	wide := base
	wide.GroupSize = len(base.Powers)
	wide.InterEvery = 1
	alt, err := RunScheme(SchemeHADFLGrouped, wide)
	if err != nil {
		t.Fatal(err)
	}
	if alt.Accuracy == def.Accuracy && alt.Time == def.Time && alt.Rounds == def.Rounds {
		t.Error("GroupSize/InterEvery did not change the grouped trajectory")
	}
	again, err := RunScheme(SchemeHADFLGrouped, wide)
	if err != nil {
		t.Fatal(err)
	}
	if again.Accuracy != alt.Accuracy || again.Time != alt.Time {
		t.Error("identical grouped knobs did not reproduce the run")
	}
}

func TestFingerprintRejectsInvalid(t *testing.T) {
	if _, err := Fingerprint("nope", Options{}); err == nil {
		t.Fatal("unknown scheme fingerprinted")
	}
	if _, err := Fingerprint(SchemeHADFL, Options{Powers: []float64{-1}}); err == nil {
		t.Fatal("invalid options fingerprinted")
	}
}

func TestSchemesAndValidScheme(t *testing.T) {
	all := Schemes()
	want := []string{SchemeHADFL, SchemeFedAvg, SchemeDistributed, SchemeAsyncFL, SchemeHADFLGrouped}
	if len(all) != len(want) {
		t.Fatalf("Schemes() = %v", all)
	}
	for i, s := range want {
		if all[i] != s {
			t.Errorf("Schemes()[%d] = %q, want %q", i, all[i], s)
		}
		if !ValidScheme(s) {
			t.Errorf("ValidScheme(%q) = false", s)
		}
	}
	if ValidScheme("centralized") {
		t.Error("ValidScheme accepted unknown name")
	}
}

func TestAsyncFLFingerprintRoundTrip(t *testing.T) {
	// asyncfl is a first-class scheme: it fingerprints like
	// the others and the fingerprint distinguishes it from them.
	opts := fastOpts(1)
	fp, err := Fingerprint(SchemeAsyncFL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fp) != 64 {
		t.Fatalf("fingerprint %q not a sha256 hex", fp)
	}
	for _, other := range []string{SchemeHADFL, SchemeFedAvg, SchemeDistributed} {
		ofp, err := Fingerprint(other, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ofp == fp {
			t.Fatalf("asyncfl fingerprint collides with %s", other)
		}
	}
	fp2, err := Fingerprint(SchemeAsyncFL, fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if fp2 != fp {
		t.Fatal("identical asyncfl options produced different fingerprints")
	}
}
