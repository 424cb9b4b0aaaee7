package dispatch

import (
	"encoding/json"
	"reflect"
	"testing"

	"hadfl"
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
