package hadfl

// Canonical-form helpers for Options: validation and content
// addressing. Runs are deterministic given their options (the
// simulation is seeded, and the concurrent runner and parallel tensor
// kernels keep all floating-point reduction orders fixed), so a
// canonical hash of scheme + options is a content address for the
// *result* — the serve layer (internal/serve) uses it to deduplicate
// identical requests and coalesce concurrent duplicates onto one
// in-flight run.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Validate checks that the options describe a runnable configuration
// after defaults are applied: positive finite powers, a known model,
// non-negative epoch budget and Dirichlet alpha, and a failure
// schedule that names existing devices at non-negative virtual times.
func (o Options) Validate() error {
	o.fill()
	for i, p := range o.Powers {
		if math.IsNaN(p) || math.IsInf(p, 0) || p <= 0 {
			return fmt.Errorf("hadfl: power[%d] = %v, want a positive finite ratio", i, p)
		}
	}
	switch o.Model {
	case "resnet", "vgg":
	default:
		return fmt.Errorf("hadfl: unknown model %q (want resnet or vgg)", o.Model)
	}
	if math.IsNaN(o.TargetEpochs) || math.IsInf(o.TargetEpochs, 0) || o.TargetEpochs < 0 {
		return fmt.Errorf("hadfl: TargetEpochs = %v, want a finite value >= 0", o.TargetEpochs)
	}
	if math.IsNaN(o.NonIIDAlpha) || math.IsInf(o.NonIIDAlpha, 0) || o.NonIIDAlpha < 0 {
		return fmt.Errorf("hadfl: NonIIDAlpha = %v, want a finite value >= 0", o.NonIIDAlpha)
	}
	for id, at := range o.FailAt {
		if id < 0 || id >= len(o.Powers) {
			return fmt.Errorf("hadfl: FailAt device %d outside cluster of %d", id, len(o.Powers))
		}
		if math.IsNaN(at) || math.IsInf(at, 0) || at < 0 {
			return fmt.Errorf("hadfl: FailAt[%d] = %v, want a finite non-negative virtual time", id, at)
		}
	}
	if o.GroupSize < 0 {
		return fmt.Errorf("hadfl: GroupSize = %d, want >= 0 (0 = scheme default)", o.GroupSize)
	}
	if o.InterEvery < 0 {
		return fmt.Errorf("hadfl: InterEvery = %d, want >= 0 (0 = scheme default)", o.InterEvery)
	}
	return nil
}

// Canonical renders the options in a normalized textual form: defaults
// filled, failure schedule sorted by device, floats in shortest
// round-trip notation. Two Options values with the same canonical form
// produce identical results under the same scheme. OnRound is
// excluded — progress callbacks observe a run but do not change it —
// and so is Parallelism: the concurrent runner joins per-device
// partials in a deterministic order, so every parallelism level
// produces byte-identical results (enforced by TestParallelDeterminism)
// and requests differing only in Parallelism share one cache entry.
func (o Options) Canonical() string {
	o.fill()
	var b strings.Builder
	b.WriteString("powers=[")
	for i, p := range o.Powers {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(formatFloat(p))
	}
	b.WriteString("];model=")
	b.WriteString(o.Model)
	b.WriteString(";full=")
	b.WriteString(strconv.FormatBool(o.Full))
	b.WriteString(";epochs=")
	b.WriteString(formatFloat(o.TargetEpochs))
	b.WriteString(";alpha=")
	b.WriteString(formatFloat(o.NonIIDAlpha))
	b.WriteString(";seed=")
	b.WriteString(strconv.FormatInt(o.Seed, 10))
	b.WriteString(";fail={")
	ids := make([]int, 0, len(o.FailAt))
	for id := range o.FailAt {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(id))
		b.WriteByte('=')
		b.WriteString(formatFloat(o.FailAt[id]))
	}
	// The hierarchy knobs render even at their zero values so the form
	// stays self-describing; 0 means "scheme default", which the grouped
	// scheme resolves to 2/2, so 0 and an explicit 2 are distinct
	// canonical forms by design (the default may evolve with the paper
	// profile without silently aliasing old fingerprints).
	b.WriteString("};group=")
	b.WriteString(strconv.Itoa(o.GroupSize))
	b.WriteString(";inter=")
	b.WriteString(strconv.Itoa(o.InterEvery))
	return b.String()
}

// Fingerprint returns a content address for the result of running
// scheme with opts: the hex SHA-256 of the scheme name and the
// canonical option form. Identical fingerprints mean identical runs
// (same curve, same final model), so results may be cached and
// concurrent duplicate requests coalesced. Returns an error if the
// scheme is unknown or the options do not validate.
func Fingerprint(scheme string, opts Options) (string, error) {
	if !ValidScheme(scheme) {
		return "", unknownSchemeError(scheme)
	}
	if err := opts.Validate(); err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(scheme + "|" + opts.Canonical()))
	return hex.EncodeToString(sum[:]), nil
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
