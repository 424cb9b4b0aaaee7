package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hadfl"
	"hadfl/internal/coordinator"
	"hadfl/internal/metrics"
)

// ResultStore persists completed runs across restarts, keyed by their
// fingerprint (the job ID). Each run becomes two files in the store
// directory:
//
//	<fp>.json   — the run's summary and the request that produced it
//	<fp>.model  — the final parameter vector, in the
//	              coordinator.ModelStore snapshot format
//
// On boot the server rehydrates every stored run into its result cache
// as an already-Done job, so identical submissions are served without
// retraining even after a restart. The training curve is not
// persisted: a rehydrated summary reports CurvePoints 0 and streams no
// round events. Cache eviction does not remove store files; an evicted
// result reappears on the next boot.
type ResultStore struct {
	dir string
	reg *metrics.Registry
}

// storedRun is the JSON sidecar: the hadfl.Result wire form plus
// enough to rebuild the job's identity (options, revalidated against
// the fingerprint on load) and its finish time, without the model
// vector.
type storedRun struct {
	ID      string        `json:"id"`
	Options hadfl.Options `json:"options"`
	hadfl.Result
	Finished time.Time `json:"finished"`
}

// NewResultStore opens (creating if needed) a store directory.
func NewResultStore(dir string, reg *metrics.Registry) (*ResultStore, error) {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: result store: %w", err)
	}
	return &ResultStore{dir: dir, reg: reg}, nil
}

func (st *ResultStore) summaryPath(id string) string {
	return filepath.Join(st.dir, id+".json")
}

func (st *ResultStore) modelPath(id string) string {
	return filepath.Join(st.dir, id+".model")
}

// Save persists a completed run. Both files are written via
// tmp+rename, and the model lands before the summary, so a crash at
// any point leaves either no summary (orphaned model, ignored by
// Load) or a complete, untorn pair — never a summary pointing at a
// torn model, even when re-Saving over an earlier entry.
func (st *ResultStore) Save(j *Job, res *hadfl.Result) error {
	ms := coordinator.NewModelStore(1)
	ms.Save(res.Rounds, res.FinalParams)
	modelTmp := st.modelPath(j.ID) + ".tmp"
	if err := ms.WriteFile(modelTmp); err != nil {
		st.reg.Inc("store_errors_total")
		return err
	}
	if err := os.Rename(modelTmp, st.modelPath(j.ID)); err != nil {
		st.reg.Inc("store_errors_total")
		return err
	}
	_, finished := j.Times()
	data, err := json.Marshal(storedRun{ID: j.ID, Options: j.Options, Result: *res, Finished: finished})
	if err != nil {
		st.reg.Inc("store_errors_total")
		return err
	}
	// Write-then-rename keeps a concurrent boot (or a crash mid-write)
	// from seeing a torn summary.
	tmp := st.summaryPath(j.ID) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		st.reg.Inc("store_errors_total")
		return err
	}
	if err := os.Rename(tmp, st.summaryPath(j.ID)); err != nil {
		st.reg.Inc("store_errors_total")
		return err
	}
	st.reg.Inc("store_saved_total")
	return nil
}

// Load rehydrates every persisted run as a terminal Done job. Corrupt
// or stale entries (unparsable JSON, missing model file, a fingerprint
// that no longer matches — e.g. after a canonicalization change or for
// a scheme this build does not know) are skipped and counted on
// store_skipped_total, never fatal: the worst outcome of a bad store
// entry is a retrain.
func (st *ResultStore) Load() []*Job {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		st.reg.Inc("store_errors_total")
		return nil
	}
	var jobs []*Job
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		j, ok := st.loadOne(filepath.Join(st.dir, e.Name()))
		if !ok {
			st.reg.Inc("store_skipped_total")
			continue
		}
		jobs = append(jobs, j)
	}
	st.reg.SetGauge("store_rehydrated", float64(len(jobs)))
	return jobs
}

func (st *ResultStore) loadOne(path string) (*Job, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	var sr storedRun
	if err := json.Unmarshal(data, &sr); err != nil {
		return nil, false
	}
	// The fingerprint is the cache key: recompute it so a stale or
	// tampered entry cannot shadow a different run's slot.
	fp, err := hadfl.Fingerprint(sr.Scheme, sr.Options)
	if err != nil || fp != sr.ID {
		return nil, false
	}
	rounds, params, err := coordinator.ReadSnapshotFile(st.modelPath(sr.ID))
	if err != nil || rounds != sr.Rounds {
		return nil, false
	}
	j := newJob(sr.ID, sr.Scheme, sr.Options)
	sr.FinalParams = params
	j.finish(&sr.Result, nil)
	if !sr.Finished.IsZero() {
		j.mu.Lock()
		j.finished = sr.Finished
		j.mu.Unlock()
	}
	return j, true
}
