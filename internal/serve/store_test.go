package serve

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"hadfl"
	"hadfl/internal/coordinator"
)

// storeRunner is a fast fake run that still produces a persistable
// result (non-empty FinalParams).
func storeRunner(runs *atomic.Int64) Runner {
	return func(_ context.Context, scheme string, _ hadfl.Options, _ func(hadfl.RoundUpdate)) (*hadfl.Result, error) {
		if runs != nil {
			runs.Add(1)
		}
		return &hadfl.Result{
			Scheme: scheme, Accuracy: 0.75, Time: 12.5, Rounds: 3,
			DeviceBytes: 1024, FinalParams: []float64{1, 2, 3},
		}, nil
	}
}

func waitStored(t *testing.T, dir, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := os.Stat(filepath.Join(dir, id+".json")); err == nil {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("result %s never persisted to %s", id, dir)
}

// TestResultStorePersistsAcrossRestart is the satellite acceptance
// check: a completed run is written to -store-dir and a freshly booted
// server serves the identical submission from the rehydrated cache
// without rerunning.
func TestResultStorePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64

	srv1 := mustNew(t, Config{Workers: 1, StoreDir: dir, Runner: storeRunner(&runs)})
	ts1 := httptest.NewServer(srv1.Handler())
	body := `{"scheme":"asyncfl","options":{"powers":[2,1],"targetEpochs":3,"seed":5}}`
	code, st := postRun(t, ts1.URL, body)
	if code != 202 {
		t.Fatalf("submit = %d", code)
	}
	final := waitDone(t, ts1.URL, st.ID)
	if final.State != StateDone {
		t.Fatalf("state %v", final.State)
	}
	waitStored(t, dir, st.ID)
	ts1.Close()
	if err := srv1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("runs before restart = %d", got)
	}

	// "Restart": a brand-new server over the same directory.
	srv2 := mustNew(t, Config{Workers: 1, StoreDir: dir, Runner: storeRunner(&runs)})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.Close(context.Background())

	// The rehydrated job is queryable by ID before any submission...
	getCode, got := getStatus(t, ts2.URL, st.ID)
	if getCode != 200 || got.State != StateDone {
		t.Fatalf("rehydrated GET = %d state %v", getCode, got.State)
	}
	if got.Result == nil || got.Result.Accuracy != 0.75 || got.Result.Rounds != 3 {
		t.Fatalf("rehydrated summary %+v", got.Result)
	}
	// ...and an identical submission is a cache hit, not a rerun.
	code2, st2 := postRun(t, ts2.URL, body)
	if code2 != 200 || st2.ID != st.ID || !st2.Cached {
		t.Fatalf("resubmit = %d id %s cached %v", code2, st2.ID, st2.Cached)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("runs after restart = %d, want 1 (served from store)", got)
	}
}

func TestResultStoreSkipsCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bogus.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A well-formed summary whose fingerprint doesn't match its content
	// must not shadow the real cache slot.
	if err := os.WriteFile(filepath.Join(dir, "deadbeef.json"),
		[]byte(`{"id":"deadbeef","scheme":"hadfl","options":{"seed":1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := mustNew(t, Config{Workers: 1, StoreDir: dir, Runner: storeRunner(nil)})
	defer srv.Close(context.Background())
	if n := srv.cache.Len(); n != 0 {
		t.Fatalf("cache rehydrated %d corrupt entries", n)
	}
}

// TestResultStoreLoadsPinnedSidecar rehydrates a sidecar byte-for-byte
// as the store wrote it while options still went through a serve-side
// mirror struct, every option set: stores written then keep serving
// their results without a retrain — same options, same summary, same
// model, same finish time.
func TestResultStoreLoadsPinnedSidecar(t *testing.T) {
	dir := t.TempDir()
	const id = "cc690836145f1fe20c2c622d90553e98b3867798677506fc824a1990c0d958c6"
	sidecar := `{"id":"` + id + `","scheme":"hadfl-grouped","options":{"powers":[4,2.5,1],"model":"vgg","full":true,"targetEpochs":8.5,"nonIIDAlpha":0.3,"seed":7,"failAt":{"0":3.25,"2":12.5},"groupSize":3,"interEvery":4,"parallelism":2},"accuracy":0.75,"time":12.5,"rounds":3,"deviceBytes":100,"serverBytes":0,"finished":"2026-01-02T03:04:05Z"}`
	if err := os.WriteFile(filepath.Join(dir, id+".json"), []byte(sidecar), 0o644); err != nil {
		t.Fatal(err)
	}
	ms := coordinator.NewModelStore(1)
	ms.Save(3, []float64{1, 2})
	if err := ms.WriteFile(filepath.Join(dir, id+".model")); err != nil {
		t.Fatal(err)
	}
	st, err := NewResultStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	jobs := st.Load()
	if len(jobs) != 1 || jobs[0].ID != id || jobs[0].State() != StateDone {
		t.Fatalf("loaded %d jobs, want the pinned sidecar as one done job", len(jobs))
	}
	want := hadfl.Options{
		Powers: []float64{4, 2.5, 1}, Model: "vgg", Full: true,
		TargetEpochs: 8.5, NonIIDAlpha: 0.3, Seed: 7,
		FailAt:    map[int]float64{0: 3.25, 2: 12.5},
		GroupSize: 3, InterEvery: 4, Parallelism: 2,
	}
	if got := jobs[0].Options; !reflect.DeepEqual(got, want) {
		t.Fatalf("rehydrated options %+v, want %+v", got, want)
	}
	res, jerr := jobs[0].Result()
	wantRes := &hadfl.Result{
		Scheme: hadfl.SchemeHADFLGrouped, Accuracy: 0.75, Time: 12.5, Rounds: 3,
		DeviceBytes: 100, ServerBytes: 0, FinalParams: []float64{1, 2},
	}
	if jerr != nil || !reflect.DeepEqual(res, wantRes) {
		t.Fatalf("rehydrated result %+v (err %v), want %+v", res, jerr, wantRes)
	}
	if _, finished := jobs[0].Times(); !finished.Equal(time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)) {
		t.Fatalf("rehydrated finished %v, want 2026-01-02T03:04:05Z", finished)
	}
}

func TestResultStoreRoundTripDirect(t *testing.T) {
	dir := t.TempDir()
	st, err := NewResultStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := hadfl.Options{Powers: []float64{2, 1}, TargetEpochs: 2, Seed: 3}
	fp, err := hadfl.Fingerprint(hadfl.SchemeFedAvg, opts)
	if err != nil {
		t.Fatal(err)
	}
	j := newJob(fp, hadfl.SchemeFedAvg, opts)
	j.finish(&hadfl.Result{
		Scheme: hadfl.SchemeFedAvg, Accuracy: 0.5, Time: 3, Rounds: 2,
		FinalParams: []float64{4, 5},
	}, nil)
	res, _ := j.Result()
	if err := st.Save(j, res); err != nil {
		t.Fatal(err)
	}
	jobs := st.Load()
	if len(jobs) != 1 {
		t.Fatalf("loaded %d jobs", len(jobs))
	}
	lj := jobs[0]
	if lj.ID != fp || lj.State() != StateDone {
		t.Fatalf("loaded job %s state %v", lj.ID, lj.State())
	}
	lres, ljerr := lj.Result()
	if ljerr != nil || lres.Accuracy != 0.5 || len(lres.FinalParams) != 2 {
		t.Fatalf("loaded result %+v err %v", lres, ljerr)
	}
}
