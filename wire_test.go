package hadfl

import (
	"encoding/json"
	"reflect"
	"testing"

	"hadfl/internal/metrics"
)

// TestOptionsWireForm pins Options' JSON form, the one wire form of run
// options (serve's POST /runs body and store sidecars, dispatch's
// request frames). A fully populated value must encode to exactly the
// bytes the serve and dispatch layers put on the wire before they
// decoded into Options directly — same keys, same order, same number
// formatting — and decode back to an equal value. A new Options field
// fails the "fully populated" check until it is given a value and a
// key here, so it cannot join or leave the wire form unnoticed.
func TestOptionsWireForm(t *testing.T) {
	o := Options{
		Powers: []float64{4, 2.5, 1}, Model: "vgg", Full: true,
		TargetEpochs: 8.5, NonIIDAlpha: 0.3, Seed: 7,
		FailAt:    map[int]float64{2: 12.5, 0: 3.25},
		GroupSize: 3, InterEvery: 4, Parallelism: 2,
	}
	v := reflect.ValueOf(o)
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; name != "OnRound" && v.Field(i).IsZero() {
			t.Fatalf("fixture leaves Options.%s zero; populate it and extend the expected bytes", name)
		}
	}
	const want = `{"powers":[4,2.5,1],"model":"vgg","full":true,"targetEpochs":8.5,"nonIIDAlpha":0.3,"seed":7,"failAt":{"0":3.25,"2":12.5},"groupSize":3,"interEvery":4,"parallelism":2}`

	o.OnRound = func(RoundUpdate) {} // a callback never reaches the wire
	got, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("wire form moved:\n got %s\nwant %s", got, want)
	}
	var back Options
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	o.OnRound = nil
	if !reflect.DeepEqual(back, o) {
		t.Fatalf("decode:\n got %+v\nwant %+v", back, o)
	}
	if empty, _ := json.Marshal(Options{}); string(empty) != "{}" {
		t.Fatalf("zero Options encodes as %s, want {}", empty)
	}
}

// requireKeyedOrOff fails unless every field of v's type carries a JSON
// key, or is named in off and tagged "-": a new field must choose
// between the wire form and the off-wire list, visibly.
func requireKeyedOrOff(t *testing.T, v any, off ...string) {
	t.Helper()
	rt := reflect.TypeOf(v)
	offWire := map[string]bool{}
	for _, name := range off {
		offWire[name] = true
	}
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		tag := f.Tag.Get("json")
		switch {
		case offWire[f.Name] && tag != "-":
			t.Errorf("%s.%s is on the off-wire list but tagged %q", rt.Name(), f.Name, tag)
		case !offWire[f.Name] && (tag == "" || tag == "-"):
			t.Errorf("%s.%s has no JSON key; give it one or add it to the off-wire list", rt.Name(), f.Name)
		}
	}
}

// requireFull fails if the fixture leaves any field of v zero.
func requireFull(t *testing.T, v any) {
	t.Helper()
	rv := reflect.ValueOf(v)
	for i := 0; i < rv.NumField(); i++ {
		if rv.Field(i).IsZero() {
			t.Fatalf("fixture leaves %s.%s zero; populate it and extend the expected bytes", rv.Type().Name(), rv.Type().Field(i).Name)
		}
	}
}

// TestResultWireForm pins Result's JSON form, the one wire form of a
// run's summary (serve's status "result" object and store sidecars,
// dispatch's result frames): the bytes those layers put on the wire
// when each spelled the summary out in its own struct. The curve, the
// parameter vector and the wall-clock eval telemetry stay off it.
func TestResultWireForm(t *testing.T) {
	requireKeyedOrOff(t, Result{}, "Series", "FinalParams", "EvalBatches", "EvalSeconds")
	r := Result{
		Scheme: SchemeHADFLGrouped, Accuracy: 0.75, Time: 12.5, Rounds: 3,
		DeviceBytes: 100, ServerBytes: 7,
		Series:      &metrics.Series{Name: "s", Points: []metrics.Point{{Epoch: 1, Time: 2, Loss: 0.5, Accuracy: 0.75}}},
		FinalParams: []float64{1, 2}, EvalBatches: 5, EvalSeconds: 0.125,
	}
	requireFull(t, r)
	const want = `{"scheme":"hadfl-grouped","accuracy":0.75,"time":12.5,"rounds":3,"deviceBytes":100,"serverBytes":7}`
	got, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("wire form moved:\n got %s\nwant %s", got, want)
	}
	if zero, _ := json.Marshal(Result{}); string(zero) != `{"scheme":"","accuracy":0,"time":0,"rounds":0,"deviceBytes":0,"serverBytes":0}` {
		t.Fatalf("zero Result encodes as %s; the summary keys are never omitted", zero)
	}
}

// TestRoundUpdateWireForm pins RoundUpdate's JSON form, the one wire
// form of a round (serve's SSE "round" events, dispatch's round
// frames). Scheme stays off it: a stream or a frame belongs to one run.
func TestRoundUpdateWireForm(t *testing.T) {
	requireKeyedOrOff(t, RoundUpdate{}, "Scheme")
	u := RoundUpdate{Scheme: SchemeHADFL, Round: 3, Time: 12.5, Loss: 0.25, Accuracy: 0.75, Selected: []int{0, 2}, Bypassed: 1}
	requireFull(t, u)
	const want = `{"round":3,"time":12.5,"loss":0.25,"accuracy":0.75,"selected":[0,2],"bypassed":1}`
	got, err := json.Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("wire form moved:\n got %s\nwant %s", got, want)
	}
	var back RoundUpdate
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	u.Scheme = ""
	if !reflect.DeepEqual(back, u) {
		t.Fatalf("decode:\n got %+v\nwant %+v", back, u)
	}
	if first, _ := json.Marshal(RoundUpdate{Round: 1}); string(first) != `{"round":1,"time":0,"loss":0,"accuracy":0}` {
		t.Fatalf("sparse RoundUpdate encodes as %s; only selected and bypassed are omitted when empty", first)
	}
}
