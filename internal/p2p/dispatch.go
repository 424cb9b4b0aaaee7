package p2p

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Dispatch frames: the serve layer's remote-execution plane rides on
// the same Transport and Message codec as the training data plane, so
// every existing transport (ChanHub for in-process simulated networks,
// TCPNode for real deployments) carries dispatch traffic unchanged.
//
// A dispatch frame is a Message whose Kind is one of the KindDispatch*
// values and whose opaque body (JSON at the protocol layer above) is
// byte-packed into the float64 Payload:
//
//	Version — DispatchVersion (protocol major version; receivers
//	          reject mismatches rather than guessing at layouts)
//	Round   — the dispatcher-assigned sequence number identifying the
//	          in-flight run the frame belongs to
//	Meta    — exact body length in bytes (the payload rounds up to
//	          whole float64 words)
//	Payload — ceil(Meta/8) words holding the body little-endian
//
// DispatchBody is the single validating decoder: malformed, truncated
// or oversized frames return errors, never panic — the fuzz targets in
// fuzz_test.go pin that contract.

// DispatchVersion is the dispatch protocol version stamped on every
// frame. Bump it on any incompatible body or layout change; receivers
// reject other versions with ErrDispatchVersion.
const DispatchVersion = 1

// MaxDispatchBody bounds the body of a single dispatch frame (16 MiB).
// It is a per-frame (equivalently per-chunk) bound, not a ceiling on a
// logical body: result bodies grow with the model (the tiny reference
// job's raw64 result is ≈45 KB, BENCHMARK.json's
// dispatch.wire_bytes_per_job), and bodies larger than one frame travel
// as a chunk stream (see chunk.go), so model size is not capped here. The bound exists so a corrupt
// length field in any one frame cannot demand an absurd allocation.
const MaxDispatchBody = 16 << 20

// ErrDispatchVersion reports a frame from an incompatible protocol
// version.
var ErrDispatchVersion = fmt.Errorf("p2p: dispatch protocol version mismatch (want %d)", DispatchVersion)

// IsDispatchKind reports whether k belongs to the dispatch plane.
func IsDispatchKind(k Kind) bool {
	switch k {
	case KindDispatchHello, KindDispatchRequest, KindDispatchRound,
		KindDispatchResult, KindDispatchError, KindDispatchCancel,
		KindDispatchChunk:
		return true
	}
	return false
}

// PackBytes encodes an opaque byte body into float64 words (8 bytes per
// word, little-endian, zero-padded tail). The exact byte length must
// travel separately (dispatch frames use Meta).
func PackBytes(b []byte) []float64 {
	return PackBytesInto(nil, b)
}

// PackBytesInto is PackBytes with a caller-owned destination: dst is
// resized (reallocating only when capacity is short) and filled, so a
// sender encoding many bodies can reuse one word buffer instead of
// allocating per frame. The returned slice aliases dst when it fits —
// callers must not reuse the buffer until the frame built from it has
// been fully handed off (transports share payload slices with
// receivers; SplitChunks sidesteps this by packing a stream's whole
// body once and sub-slicing per chunk).
func PackBytesInto(dst []float64, b []byte) []float64 {
	n := (len(b) + 7) / 8
	if cap(dst) < n {
		dst = make([]float64, n)
	} else {
		dst = dst[:n]
	}
	full := len(b) / 8
	for i := 0; i < full; i++ {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	if full < n {
		var tail [8]byte
		copy(tail[:], b[full*8:])
		dst[full] = math.Float64frombits(binary.LittleEndian.Uint64(tail[:]))
	}
	return dst
}

// UnpackBytes reverses PackBytes: it extracts n bytes from the word
// payload, rejecting lengths that do not fit the payload exactly
// (padding beyond the final word would mean a torn or forged frame).
func UnpackBytes(payload []float64, n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("p2p: negative dispatch body length %d", n)
	}
	if n > MaxDispatchBody {
		return nil, fmt.Errorf("p2p: dispatch body %d bytes exceeds cap %d", n, MaxDispatchBody)
	}
	if want := (n + 7) / 8; want != len(payload) {
		return nil, fmt.Errorf("p2p: dispatch body %d bytes needs %d payload words, frame has %d", n, want, len(payload))
	}
	out := make([]byte, len(payload)*8)
	for i, w := range payload {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(w))
	}
	return out[:n], nil
}

// NewDispatchFrame builds a dispatch-plane message: kind must be a
// KindDispatch* value, seq identifies the in-flight run, and body is
// the opaque protocol payload (the sender's transport fills From).
func NewDispatchFrame(kind Kind, to, seq int, body []byte) (Message, error) {
	if !IsDispatchKind(kind) {
		return Message{}, fmt.Errorf("p2p: %v is not a dispatch kind", kind)
	}
	if len(body) > MaxDispatchBody {
		return Message{}, fmt.Errorf("p2p: dispatch body %d bytes exceeds cap %d", len(body), MaxDispatchBody)
	}
	return Message{
		Kind:    kind,
		To:      to,
		Round:   seq,
		Meta:    len(body),
		Version: DispatchVersion,
		Payload: PackBytes(body),
	}, nil
}

// DispatchBody validates a dispatch frame and returns its body bytes.
// It errors on non-dispatch kinds, protocol version mismatches and any
// Meta/Payload inconsistency; it never panics, whatever the frame
// contents (fuzzed in fuzz_test.go).
func DispatchBody(m Message) ([]byte, error) {
	if !IsDispatchKind(m.Kind) {
		return nil, fmt.Errorf("p2p: %v is not a dispatch kind", m.Kind)
	}
	if m.Version != DispatchVersion {
		return nil, fmt.Errorf("%w, frame has %v", ErrDispatchVersion, m.Version)
	}
	return UnpackBytes(m.Payload, m.Meta)
}
