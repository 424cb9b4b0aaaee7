package hadfl

import (
	"encoding/json"
	"reflect"
	"testing"
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
