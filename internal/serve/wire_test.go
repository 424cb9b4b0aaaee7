package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"hadfl"
	"hadfl/internal/metrics"
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
	roundTrip(t, storedRun{ID: "x", Options: o, Result: hadfl.Result{Scheme: hadfl.SchemeHADFL}}, &sr)
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

// TestResultWireBytes pins the exact bytes a finished run puts on the
// HTTP API: the status's "result" object with and without ?curve=1, and
// one SSE "round" event. The runner fills every hadfl.Result and
// hadfl.RoundUpdate field, so a field that starts or stops leaking onto
// the wire (eval telemetry, the parameter vector, a round's scheme)
// moves these bytes.
func TestResultWireBytes(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, Runner: func(_ context.Context, scheme string, _ hadfl.Options, onRound func(hadfl.RoundUpdate)) (*hadfl.Result, error) {
		onRound(hadfl.RoundUpdate{Scheme: scheme, Round: 3, Time: 12.5, Loss: 0.25, Accuracy: 0.75, Selected: []int{0, 2}, Bypassed: 1})
		return &hadfl.Result{
			Scheme: scheme, Accuracy: 0.75, Time: 12.5,
			Series: &metrics.Series{Name: "pinned", Points: []metrics.Point{
				{Epoch: 0.5, Time: 6.25, Loss: 0.5, Accuracy: 0.5},
				{Epoch: 1, Time: 12.5, Loss: 0.25, Accuracy: 0.75},
			}},
			DeviceBytes: 100, ServerBytes: 7, Rounds: 3,
			FinalParams: []float64{1, 2},
			EvalBatches: 5, EvalSeconds: 0.125,
		}, nil
	}})
	defer srv.Close(context.Background())
	job, _, err := srv.Submit(hadfl.SchemeHADFLGrouped, hadfl.Options{Powers: []float64{2, 1}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("job did not finish")
	}
	get := func(path string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", path, rec.Code)
		}
		return rec.Body.String()
	}
	const summary = `"scheme":"hadfl-grouped","accuracy":0.75,"time":12.5,"rounds":3,"deviceBytes":100,"serverBytes":7,"curvePoints":2`
	for path, want := range map[string]string{
		"/runs/" + job.ID:              `{` + summary + `}`,
		"/runs/" + job.ID + "?curve=1": `{` + summary + `,"curve":[{"epoch":0.5,"time":6.25,"loss":0.5,"accuracy":0.5},{"epoch":1,"time":12.5,"loss":0.25,"accuracy":0.75}]}`,
	} {
		var st struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal([]byte(get(path)), &st); err != nil {
			t.Fatal(err)
		}
		if string(st.Result) != want {
			t.Errorf("GET %s result moved:\n got %s\nwant %s", path, st.Result, want)
		}
	}
	const round = "event: round\ndata: {\"type\":\"round\",\"round\":{\"round\":3,\"time\":12.5,\"loss\":0.25,\"accuracy\":0.75,\"selected\":[0,2],\"bypassed\":1}}\n\n"
	if events := get("/runs/" + job.ID + "/events"); !strings.Contains(events, round) {
		t.Errorf("SSE round event moved:\n got %q\nwant it to contain %q", events, round)
	}
}
