package serve

import (
	"encoding/json"
	"reflect"
	"testing"

	"hadfl"
)

// TestRunOptionsCoverEveryOptionsField is the serve-layer drift guard:
// every hadfl.Options field, populated with a non-zero value via
// reflection, must survive the JSON round trip of both serve wire
// structs — the POST /runs body and the store sidecar. A future Options
// field kept off the wire (tagged "-", or given a lossy encoding) fails
// here at unit-test time instead of silently dropping data in the HTTP
// API or the persisted sidecars.
func TestRunOptionsCoverEveryOptionsField(t *testing.T) {
	var o RunOptions
	v := reflect.ValueOf(&o).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		name := v.Type().Field(i).Name
		if name == "OnRound" {
			continue // progress callback: not wire data by design
		}
		switch f.Kind() {
		case reflect.Slice:
			s := reflect.MakeSlice(f.Type(), 1, 1)
			fillWireScalar(t, name, s.Index(0), i)
			f.Set(s)
		case reflect.Map:
			m := reflect.MakeMap(f.Type())
			k := reflect.New(f.Type().Key()).Elem()
			fillWireScalar(t, name, k, i)
			val := reflect.New(f.Type().Elem()).Elem()
			fillWireScalar(t, name, val, i+1)
			m.SetMapIndex(k, val)
			f.Set(m)
		default:
			fillWireScalar(t, name, f, i)
		}
	}

	var req RunRequest
	roundTrip(t, RunRequest{Scheme: hadfl.SchemeHADFL, Options: o}, &req)
	if !reflect.DeepEqual(req.Options, o) {
		t.Fatalf("RunRequest round trip dropped data:\n got %+v\nwant %+v\n(give the new Options field a JSON key)", req.Options, o)
	}
	var sr storedRun
	roundTrip(t, storedRun{ID: "x", Scheme: hadfl.SchemeHADFL, Options: o}, &sr)
	if !reflect.DeepEqual(sr.Options, o) {
		t.Fatalf("store sidecar round trip dropped data:\n got %+v\nwant %+v\n(give the new Options field a JSON key)", sr.Options, o)
	}
}

func roundTrip(t *testing.T, in, out any) {
	t.Helper()
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatal(err)
	}
}

func fillWireScalar(t *testing.T, name string, f reflect.Value, i int) {
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
		t.Fatalf("Options field %s has kind %v this guard cannot populate — extend fillWireScalar", name, f.Kind())
	}
}
