package p2p

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// Parameter codecs: encodings for flat float64 parameter vectors. A
// codec turns a vector into an opaque byte section (and back),
// optionally encoding against a reference vector both ends can derive.
// Codecs self-report exactness per encode: raw64 and delta always
// reproduce the input bit for bit, f32 and topk only when the input
// happens to survive (every value f32-round-trips, every dropped delta
// is exactly zero).
//
// Only raw64 rides the dispatch wire (AppendRaw64 / DecodeRaw64): every
// dispatched result carries its parameter vector as a raw64 section.
// The other codecs remain for the benchmark's p2p.codec_* probes and
// FuzzCodecDecode; nothing negotiates them.

// Built-in codec names.
const (
	ParamCodecRaw64 = "raw64" // bit-exact little-endian float64, the default
	ParamCodecF32   = "f32"   // float32 narrowing, 2× smaller, lossy
	ParamCodecDelta = "delta" // XOR vs the reference, DEFLATE-compressed, exact
	ParamCodecTopK  = "topk"  // top-k |delta| sparsification, lossy unless sparse
)

// ParamCodec encodes parameter vectors for the wire.
type ParamCodec interface {
	// Name is the codec's registry identity.
	Name() string
	// UsesRef reports whether Encode/Decode consult the reference
	// vector; callers skip deriving one for codecs that ignore it.
	UsesRef() bool
	// Encode returns params' wire section and whether Decode will
	// reproduce params bit for bit. ref may be nil or of any length
	// (mismatched references are treated as absent); Decode must be
	// given the same ref to reverse the encoding.
	Encode(params, ref []float64) (data []byte, exact bool)
	// Decode rebuilds a count-length vector from data. It returns an
	// error — never panics — on malformed, truncated or oversized
	// input (FuzzCodecDecode pins that), and bounds its allocations by
	// count, which callers validate against MaxDispatchStream.
	Decode(data []byte, ref []float64, count int) ([]float64, error)
}

var (
	paramCodecMu  sync.RWMutex
	paramCodecs   = make(map[string]ParamCodec)
	paramCodecSeq []string // registration order, for stable advertisement
)

// RegisterParamCodec adds a codec to the process-level registry.
// Like schemes, codecs are identities: duplicate names are rejected.
func RegisterParamCodec(c ParamCodec) error {
	paramCodecMu.Lock()
	defer paramCodecMu.Unlock()
	name := c.Name()
	if name == "" {
		return fmt.Errorf("p2p: param codec with empty name")
	}
	if _, dup := paramCodecs[name]; dup {
		return fmt.Errorf("p2p: param codec %q already registered", name)
	}
	paramCodecs[name] = c
	paramCodecSeq = append(paramCodecSeq, name)
	return nil
}

// ParamCodecByName looks a codec up; ok is false for unknown names.
func ParamCodecByName(name string) (ParamCodec, bool) {
	paramCodecMu.RLock()
	defer paramCodecMu.RUnlock()
	c, ok := paramCodecs[name]
	return c, ok
}

// ParamCodecNames returns every registered codec name in registration
// order (raw64 first).
func ParamCodecNames() []string {
	paramCodecMu.RLock()
	defer paramCodecMu.RUnlock()
	return append([]string(nil), paramCodecSeq...)
}

func init() {
	for _, c := range []ParamCodec{raw64Codec{}, f32Codec{}, deltaCodec{}, topkCodec{}} {
		if err := RegisterParamCodec(c); err != nil {
			panic(err)
		}
	}
}

// maxParamCount bounds a decoded vector by the stream cap: count claims
// beyond it are forged (the encoded section could never have shipped).
const maxParamCount = MaxDispatchStream / 8

func checkCount(count int) error {
	if count < 0 || count > maxParamCount {
		return fmt.Errorf("p2p: param count %d outside [0, %d]", count, maxParamCount)
	}
	return nil
}

// raw64Codec is the identity encoding: 8 bytes per value, little-endian
// IEEE-754 bits. Always exact — the determinism suite's wire format.
type raw64Codec struct{}

func (raw64Codec) Name() string  { return ParamCodecRaw64 }
func (raw64Codec) UsesRef() bool { return false }

func (raw64Codec) Encode(params, _ []float64) ([]byte, bool) {
	return AppendRaw64(make([]byte, 0, 8*len(params)), params), true
}

func (raw64Codec) Decode(data []byte, _ []float64, count int) ([]float64, error) {
	return DecodeRaw64(data, count)
}

// AppendRaw64 appends params' raw64 section to dst: 8 bytes per value,
// little-endian IEEE-754 bits.
func AppendRaw64(dst []byte, params []float64) []byte {
	for _, v := range params {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodeRaw64 rebuilds a count-length vector from a raw64 section. A
// zero count decodes to nil, so an empty vector and a missing one
// arrive alike.
func DecodeRaw64(data []byte, count int) ([]float64, error) {
	if err := checkCount(count); err != nil {
		return nil, err
	}
	if len(data) != 8*count {
		return nil, fmt.Errorf("p2p: raw64 section is %d bytes, want %d for %d params", len(data), 8*count, count)
	}
	if count == 0 {
		return nil, nil
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return out, nil
}

// f32Codec narrows to float32: half the bytes, ~7 significant decimal
// digits. Exact only when every value round-trips through float32.
type f32Codec struct{}

func (f32Codec) Name() string  { return ParamCodecF32 }
func (f32Codec) UsesRef() bool { return false }

func (f32Codec) Encode(params, _ []float64) ([]byte, bool) {
	data := make([]byte, 4*len(params))
	exact := true
	for i, v := range params {
		f := float32(v)
		// Bit-level comparison: exactness promises Decode reproduces the
		// input bit for bit, which a NaN payload or denormal would break
		// even when the values compare equal.
		if math.Float64bits(float64(f)) != math.Float64bits(v) {
			exact = false
		}
		binary.LittleEndian.PutUint32(data[i*4:], math.Float32bits(f))
	}
	return data, exact
}

func (f32Codec) Decode(data []byte, _ []float64, count int) ([]float64, error) {
	if err := checkCount(count); err != nil {
		return nil, err
	}
	if len(data) != 4*count {
		return nil, fmt.Errorf("p2p: f32 section is %d bytes, want %d for %d params", len(data), 4*count, count)
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(data[i*4:])))
	}
	return out, nil
}

// deltaCodec XORs each value's bits with the reference's and DEFLATEs
// the result. Parameters that barely moved from the initial model share
// sign, exponent and high mantissa bits with it, so the XOR stream is
// dense with zero bytes and compresses well — and the encoding is
// lossless whatever the data, making it the exact-but-smaller choice.
// A missing or length-mismatched reference degrades to XOR-with-zero
// (plain bits), still exact, just less compressible.
type deltaCodec struct{}

func (deltaCodec) Name() string  { return ParamCodecDelta }
func (deltaCodec) UsesRef() bool { return true }

func (deltaCodec) Encode(params, ref []float64) ([]byte, bool) {
	xored := make([]byte, 8*len(params))
	if len(ref) != len(params) {
		ref = nil
	}
	for i, v := range params {
		bits := math.Float64bits(v)
		if ref != nil {
			bits ^= math.Float64bits(ref[i])
		}
		binary.LittleEndian.PutUint64(xored[i*8:], bits)
	}
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil { // impossible for a valid level; keep the contract total
		return xored, true
	}
	_, _ = w.Write(xored)
	_ = w.Close()
	return buf.Bytes(), true
}

func (deltaCodec) Decode(data []byte, ref []float64, count int) ([]float64, error) {
	if err := checkCount(count); err != nil {
		return nil, err
	}
	r := flate.NewReader(bytes.NewReader(data))
	defer r.Close()
	xored := make([]byte, 8*count)
	if _, err := io.ReadFull(r, xored); err != nil {
		return nil, fmt.Errorf("p2p: delta section inflate: %w", err)
	}
	// The stream must end exactly at count values — trailing data means
	// a count/section mismatch.
	var extra [1]byte
	if n, _ := r.Read(extra[:]); n != 0 {
		return nil, fmt.Errorf("p2p: delta section longer than %d params", count)
	}
	if len(ref) != count {
		ref = nil
	}
	out := make([]float64, count)
	for i := range out {
		bits := binary.LittleEndian.Uint64(xored[i*8:])
		if ref != nil {
			bits ^= math.Float64bits(ref[i])
		}
		out[i] = math.Float64frombits(bits)
	}
	return out, nil
}

// topkFraction is the fraction of values the topk codec keeps — the
// largest |param - ref| movers; everything else decodes to its
// reference value. 12 bytes per kept entry vs 8 per raw value makes
// the section ≈0.15× raw at this setting.
const topkFraction = 0.1

// topkCodec ships only the k values that moved farthest from the
// reference, as (uint32 index, float64 value) pairs behind a one-byte
// flags header whose low bit is the exactness bit: set exactly when
// every dropped value equals its reference bit for bit, so the decode
// is provably lossless despite the sparsification.
type topkCodec struct{}

// topkFlagExact marks a topk section whose decode is bit-exact.
const topkFlagExact = 0x1

func (topkCodec) Name() string  { return ParamCodecTopK }
func (topkCodec) UsesRef() bool { return true }

func (topkCodec) Encode(params, ref []float64) ([]byte, bool) {
	if len(ref) != len(params) {
		ref = nil
	}
	refAt := func(i int) float64 {
		if ref == nil {
			return 0
		}
		return ref[i]
	}
	k := int(float64(len(params)) * topkFraction)
	if k < 1 {
		k = 1
	}
	if k > len(params) {
		k = len(params)
	}
	idx := make([]int, len(params))
	for i := range idx {
		idx[i] = i
	}
	// Largest movers first; ties to the lower index so the encoding is
	// deterministic for determinism-suite purposes.
	sort.Slice(idx, func(a, b int) bool {
		da, db := math.Abs(params[idx[a]]-refAt(idx[a])), math.Abs(params[idx[b]]-refAt(idx[b]))
		if da != db {
			return da > db
		}
		return idx[a] < idx[b]
	})
	kept := append([]int(nil), idx[:k]...)
	sort.Ints(kept) // index order on the wire: cache-friendly decode
	inKept := make(map[int]bool, k)
	for _, i := range kept {
		inKept[i] = true
	}
	exact := true
	for i, v := range params {
		if !inKept[i] && math.Float64bits(v) != math.Float64bits(refAt(i)) {
			exact = false
			break
		}
	}
	data := make([]byte, 5+12*k)
	if exact {
		data[0] = topkFlagExact
	}
	binary.LittleEndian.PutUint32(data[1:], uint32(k))
	off := 5
	for _, i := range kept {
		binary.LittleEndian.PutUint32(data[off:], uint32(i))
		binary.LittleEndian.PutUint64(data[off+4:], math.Float64bits(params[i]))
		off += 12
	}
	return data, exact
}

func (topkCodec) Decode(data []byte, ref []float64, count int) ([]float64, error) {
	if err := checkCount(count); err != nil {
		return nil, err
	}
	if len(data) < 5 {
		return nil, fmt.Errorf("p2p: topk section is %d bytes, want at least 5", len(data))
	}
	k := int(binary.LittleEndian.Uint32(data[1:]))
	if k > count {
		return nil, fmt.Errorf("p2p: topk keeps %d of %d params", k, count)
	}
	if len(data) != 5+12*k {
		return nil, fmt.Errorf("p2p: topk section is %d bytes, want %d for k=%d", len(data), 5+12*k, k)
	}
	if len(ref) != count {
		ref = nil
	}
	out := make([]float64, count)
	copy(out, ref)
	off := 5
	for n := 0; n < k; n++ {
		i := int(binary.LittleEndian.Uint32(data[off:]))
		if i >= count {
			return nil, fmt.Errorf("p2p: topk index %d outside %d params", i, count)
		}
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off+4:]))
		off += 12
	}
	return out, nil
}
