package dispatch

import (
	"encoding/json"
	"reflect"
	"testing"

	"hadfl"
	"hadfl/internal/metrics"
	"hadfl/internal/p2p"
)

// TestWireOptionsCoverEveryOptionsField is the drift guard for options
// on the dispatch wire: it populates every hadfl.Options field with a
// non-zero value via reflection and requires a requestBody carrying it
// to round-trip through JSON exactly. The day a new Options field lands
// without a wire key, this fails — at unit-test time, not as a
// fingerprint mismatch rejecting every remote run in production.
func TestWireOptionsCoverEveryOptionsField(t *testing.T) {
	var o hadfl.Options
	v := reflect.ValueOf(&o).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		name := v.Type().Field(i).Name
		if name == "OnRound" {
			continue // the callback observes a run, it is not wire data
		}
		switch f.Kind() {
		case reflect.Slice:
			s := reflect.MakeSlice(f.Type(), 1, 1)
			fillScalar(t, name, s.Index(0), i)
			f.Set(s)
		case reflect.Map:
			m := reflect.MakeMap(f.Type())
			k := reflect.New(f.Type().Key()).Elem()
			fillScalar(t, name, k, i)
			val := reflect.New(f.Type().Elem()).Elem()
			fillScalar(t, name, val, i+1)
			m.SetMapIndex(k, val)
			f.Set(m)
		default:
			fillScalar(t, name, f, i)
		}
	}
	b, err := json.Marshal(requestBody{Proto: proto, JobID: "x", Scheme: hadfl.SchemeHADFL, Options: o})
	if err != nil {
		t.Fatal(err)
	}
	var got requestBody
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Options, o) {
		t.Fatalf("wire round trip dropped data:\n got %+v\nwant %+v\n(give the new Options field a JSON key)", got.Options, o)
	}
}

func fillScalar(t *testing.T, name string, f reflect.Value, i int) {
	t.Helper()
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(true)
	case reflect.Int, reflect.Int64:
		f.SetInt(int64(i + 3))
	case reflect.Float64:
		f.SetFloat(float64(i) + 1.5)
	case reflect.String:
		f.SetString(name + "-v")
	default:
		t.Fatalf("Options field %s has kind %v this guard cannot populate — extend fillScalar", name, f.Kind())
	}
}

// TestResultBodyKeepsEveryResultField is the guard on the result leg of
// the wire: a hadfl.Result with every field populated goes through
// toResultBody, the JSON section, the raw64 section and toResult, and
// must come back reflect.DeepEqual in every field — the dispatched ==
// local contract on a single value. A new Result field fails the
// "fully populated" check until the fixture sets it.
func TestResultBodyKeepsEveryResultField(t *testing.T) {
	in := &hadfl.Result{
		Scheme: hadfl.SchemeHADFLGrouped, Accuracy: 0.75, Time: 12.5,
		Series: &metrics.Series{Name: "pinned", Points: []metrics.Point{
			{Epoch: 0.5, Time: 6.25, Loss: 0.5, Accuracy: 0.5},
			{Epoch: 1, Time: 12.5, Loss: 0.1, Accuracy: 0.75},
		}},
		DeviceBytes: 100, ServerBytes: 7, Rounds: 3,
		FinalParams: []float64{1, -2.5, 1e-300},
		EvalBatches: 5, EvalSeconds: 0.125,
	}
	v := reflect.ValueOf(*in)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("fixture leaves Result.%s zero; populate it", v.Type().Field(i).Name)
		}
	}
	body := toResultBody(in)
	body.ParamCount = len(in.FinalParams)
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	var back resultBody
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	params, err := p2p.DecodeRaw64(p2p.AppendRaw64(nil, in.FinalParams), back.ParamCount)
	if err != nil {
		t.Fatal(err)
	}
	if out := back.toResult(params); !reflect.DeepEqual(out, in) {
		t.Fatalf("result leg dropped data:\n got %+v\nwant %+v", out, in)
	}
}
