package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"

	"hadfl"
	"hadfl/internal/metrics"
	"hadfl/internal/serve"
)

// checkResult is the hard check every in-process result must pass: a
// finite loss at every curve point, at least one round, accuracy above
// the configuration's floor and the model's parameter count.
func checkResult(res *hadfl.Result, wantParams int, accuracyFloor float64) error {
	if res.Rounds <= 0 {
		return fmt.Errorf("rounds = %d", res.Rounds)
	}
	if len(res.FinalParams) != wantParams {
		return fmt.Errorf("%d final parameters, want %d", len(res.FinalParams), wantParams)
	}
	if res.Series == nil || res.Series.Len() == 0 {
		return errors.New("empty training curve")
	}
	if err := checkCurve(res.Series.Points); err != nil {
		return err
	}
	return checkAccuracy(res.Accuracy, accuracyFloor)
}

func checkCurve(points []metrics.Point) error {
	for i, p := range points {
		if math.IsNaN(p.Loss) || math.IsInf(p.Loss, 0) {
			return fmt.Errorf("curve point %d: loss %v", i, p.Loss)
		}
	}
	return nil
}

func checkAccuracy(acc, floor float64) error {
	if math.IsNaN(acc) || acc < floor || acc > 1 {
		return fmt.Errorf("accuracy %v outside [%v, 1]", acc, floor)
	}
	return nil
}

// checkStatus is the hard check on a served job's final status body.
func checkStatus(st *serve.JobStatus, id string, accuracyFloor float64) error {
	if st.ID != id {
		return fmt.Errorf("status id %q, want %q", st.ID, id)
	}
	if st.State != serve.StateDone {
		return fmt.Errorf("state %q (%s)", st.State, st.Error)
	}
	r := st.Result
	if r == nil {
		return errors.New("done without a result")
	}
	if r.Rounds <= 0 {
		return fmt.Errorf("rounds = %d", r.Rounds)
	}
	if r.CurvePoints <= 0 || len(r.Curve) != r.CurvePoints {
		return fmt.Errorf("curve has %d points, summary says %d", len(r.Curve), r.CurvePoints)
	}
	if err := checkCurve(r.Curve); err != nil {
		return err
	}
	return checkAccuracy(r.Accuracy, accuracyFloor)
}

// sameAsLocal compares a served summary and curve with the result of
// running the same scheme and options in this process: the fingerprint
// contract says they are equal, bit for bit.
func sameAsLocal(served *serve.RunSummary, local *hadfl.Result) error {
	switch {
	case served.Scheme != local.Scheme:
		return fmt.Errorf("scheme %q vs local %q", served.Scheme, local.Scheme)
	case served.Accuracy != local.Accuracy:
		return fmt.Errorf("accuracy %v vs local %v", served.Accuracy, local.Accuracy)
	case served.Time != local.Time:
		return fmt.Errorf("time %v vs local %v", served.Time, local.Time)
	case served.Rounds != local.Rounds:
		return fmt.Errorf("rounds %d vs local %d", served.Rounds, local.Rounds)
	case served.DeviceBytes != local.DeviceBytes || served.ServerBytes != local.ServerBytes:
		return fmt.Errorf("traffic %d/%d vs local %d/%d", served.DeviceBytes, served.ServerBytes, local.DeviceBytes, local.ServerBytes)
	case len(served.Curve) != local.Series.Len():
		return fmt.Errorf("curve %d points vs local %d", len(served.Curve), local.Series.Len())
	}
	for i, p := range served.Curve {
		if p != local.Series.Points[i] {
			return fmt.Errorf("curve point %d: %+v vs local %+v", i, p, local.Series.Points[i])
		}
	}
	return nil
}

// paramsHash is the SHA-256 of a parameter vector's IEEE-754 bits.
func paramsHash(params []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range params {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenKey names a job in the golden files. Canonical carries every
// option that changes the result, the seed included, so a key can only
// ever match the job it was recorded from.
func goldenKey(scheme string, opts hadfl.Options) string {
	return scheme + "|" + opts.Canonical()
}

// goldenStore holds the committed FinalParams hashes, one file per
// workload. The comparison is a soft check: a mismatch means the
// arithmetic changed, which a change may do on purpose (and then
// rewrites the files with -update-golden); it is reported as
// hadfl.golden_mismatches and does not fail the run.
type goldenStore struct {
	dir    string
	update bool
	mu     sync.Mutex
	files  map[string]map[string]string // workload → key → hash
	dirty  map[string]bool
}

func loadGolden(dir string, update bool) (*goldenStore, error) {
	g := &goldenStore{dir: dir, update: update, files: make(map[string]map[string]string), dirty: make(map[string]bool)}
	for _, w := range workloads {
		data, err := os.ReadFile(g.path(w.name))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		m := make(map[string]string)
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", g.path(w.name), err)
		}
		g.files[w.name] = m
	}
	return g, nil
}

func (g *goldenStore) path(workload string) string {
	return filepath.Join(g.dir, workload+".json")
}

// mismatch reports whether hash differs from the committed one for key.
// A key the file does not hold (another seed, another window) is not
// compared. With -update-golden the hash is recorded instead.
func (g *goldenStore) mismatch(workload, key, hash string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.update {
		if g.files[workload] == nil {
			g.files[workload] = make(map[string]string)
		}
		if g.files[workload][key] != hash {
			g.files[workload][key] = hash
			g.dirty[workload] = true
		}
		return false
	}
	want, known := g.files[workload][key]
	return known && want != hash
}

// save writes back the files -update-golden changed.
func (g *goldenStore) save() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for name := range g.dirty {
		if err := os.MkdirAll(g.dir, 0o755); err != nil {
			return err
		}
		if err := writeJSON(g.path(name), g.files[name]); err != nil {
			return err
		}
	}
	return nil
}
