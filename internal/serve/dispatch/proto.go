// Package dispatch is the serve layer's remote-execution backend: it
// ships canonicalized run requests from a dispatcher (embedded in
// hadfl-serve) to worker nodes (cmd/hadfl-worker) over any
// p2p.Transport, streams per-round telemetry back, and propagates
// context cancellation and deadlines across the wire.
//
// # Wire protocol
//
// Every exchange is a p2p dispatch frame (p2p.NewDispatchFrame): a
// versioned Message whose JSON body is byte-packed into the payload and
// whose Round field carries the dispatcher-assigned sequence number
// identifying the in-flight run. The frames:
//
//	hello    dispatcher → worker   registration probe; body carries the
//	                               protocol version and (on TCP) the
//	                               dispatcher's dial-back address
//	hello    worker → dispatcher   registration ack; body carries the
//	                               worker's capacity
//	request  dispatcher → worker   a run: job fingerprint, scheme,
//	                               options, remaining deadline, and the
//	                               dispatcher's random instance token
//	                               (workers key runs by sender + token +
//	                               sequence, so serve restarts cannot
//	                               collide with their predecessor's runs)
//	round    worker → dispatcher   per-round telemetry (RoundUpdate)
//	chunk    worker → dispatcher   one slice of a chunk-streamed terminal
//	                               body (p2p.KindDispatchChunk); the
//	                               closing result/error frame carries the
//	                               stream's length + checksum trailer
//	result   worker → dispatcher   terminal success: summary, curve and
//	                               final parameter vector
//	error    worker → dispatcher   terminal failure: message + flags
//	                               (canceled / timeout / busy)
//	cancel   dispatcher → worker   abort the sequence's run; the worker
//	                               cancels its RunContext, which aborts
//	                               cooperatively within about one device
//	                               step and reports back an error frame
//
// Plain p2p heartbeat/ack messages (KindHeartbeat/KindAck) probe worker
// liveness between runs; any frame from a worker refreshes it.
//
// # Determinism contract
//
// Runs are deterministic given scheme + canonical options (see
// hadfl.Fingerprint), so executing remotely must not change results.
// The worker re-derives the fingerprint from the request and rejects
// mismatches, and every float64 crosses the wire exactly: summary and
// curve values through Go's JSON shortest-round-trip encoding, the
// final parameter vector as the result body's raw64 section (its
// little-endian IEEE-754 bits). A dispatched run's summary, curve and
// final parameter vector are byte-identical to a local run of the same
// request (pinned by the simnet e2e suite).
//
// # Failure and fallback semantics
//
// Transient failures — a send that errors, a worker that dies or goes
// silent mid-run, a busy rejection — move the run to another live
// worker (each worker is tried at most once per run; reruns are safe
// because runs are deterministic). When no live worker remains, the
// dispatcher falls back to executing locally, so `hadfl-serve` with no
// reachable workers degrades to exactly the single-process behavior.
// Run errors reported by the worker (bad options, cancellation) are
// not transient: they surface to the caller unchanged.
package dispatch

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"hadfl"
	"hadfl/internal/metrics"
	"hadfl/internal/p2p"
	"hadfl/internal/trace"
)

// proto is the dispatch protocol version carried inside hello and
// request bodies (the frame layer has its own p2p.DispatchVersion).
// Workers reject hellos and requests from other protocol versions, so
// a worker whose result bodies this dispatcher cannot read is refused
// at registration rather than retried result by result.
const proto = 2

// helloBody rides registration probes (dispatcher → worker) and acks
// (worker → dispatcher).
type helloBody struct {
	Proto int `json:"proto"`
	// ReplyAddr is the dispatcher's transport address for dial-back
	// replies; empty on transports with id-based routing (ChanHub).
	ReplyAddr string `json:"replyAddr,omitempty"`
	// Capacity is the worker's concurrent-run budget (ack direction).
	Capacity int `json:"capacity,omitempty"`
}

// requestBody asks a worker to execute one run.
type requestBody struct {
	Proto int `json:"proto"`
	// Token is the dispatcher instance's random identity. Workers key
	// in-flight runs by (sender, token, sequence), so a restarted or
	// second serve process — whose sequence numbers restart at 1 and
	// whose transport may reuse node id 0 — can neither collide with
	// nor cancel another instance's runs.
	Token  string `json:"token"`
	JobID  string `json:"jobID"` // hadfl.Fingerprint(scheme, options); the worker re-derives and verifies it
	Scheme string `json:"scheme"`
	// DeadlineSec, when > 0, is the remaining wall budget at send time.
	// The worker applies it as its own context deadline, so a run whose
	// dispatcher vanishes still stops on schedule (a relative duration
	// survives clock skew; the cancel frame remains the primary path).
	DeadlineSec float64 `json:"deadlineSec,omitempty"`
	// Options is the run's options in their one wire form (hadfl.Options'
	// JSON tags, the same bytes the serve API accepts); the progress
	// callback never crosses — round telemetry flows back as round frames.
	Options hadfl.Options `json:"options"`
	// Trace carries the dispatcher's span context so the worker's spans
	// join the same trace (see wireTrace). Tracing is passive: this field
	// never influences execution, and the byte-determinism oracle ignores
	// it.
	Trace *wireTrace `json:"trace,omitempty"`
}

// wireTrace propagates trace context across the dispatch protocol. On a
// request it carries the dispatcher-side parent span (TraceID + SpanID);
// on a terminal result/error frame it carries the spans the worker
// recorded for the run, so the dispatcher can stitch them into its own
// ring and GET /debug/traces shows one trace spanning both processes.
type wireTrace struct {
	TraceID string           `json:"traceID,omitempty"`
	SpanID  string           `json:"spanID,omitempty"`
	Spans   []trace.SpanData `json:"spans,omitempty"`
}

// spanContext rebuilds the propagated parent span context (zero when t
// is nil or carries no IDs — trace.Start then mints a fresh root).
func (t *wireTrace) spanContext() trace.SpanContext {
	if t == nil {
		return trace.SpanContext{}
	}
	return trace.SpanContext{TraceID: t.TraceID, SpanID: t.SpanID}
}

// cancelBody aborts one in-flight run; Token must match the request
// that started it (see requestBody.Token).
type cancelBody struct {
	Token string `json:"token"`
}

// roundBody is per-round telemetry streamed back while a run executes.
// Token echoes the originating request's instance token (as on every
// worker → dispatcher frame about a run): the dispatcher drops frames
// whose token is not its own, so it can never adopt a round — or a
// result — belonging to a predecessor instance's orphaned run whose
// (worker, sequence) pair collides with one of its own.
type roundBody struct {
	Token    string  `json:"token,omitempty"`
	Round    int     `json:"round"`
	Time     float64 `json:"time"`
	Loss     float64 `json:"loss"`
	Accuracy float64 `json:"accuracy"`
	Selected []int   `json:"selected,omitempty"`
	Bypassed int     `json:"bypassed,omitempty"`
}

// resultBody is a terminal success: everything needed to rebuild the
// hadfl.Result the run would have produced locally.
type resultBody struct {
	Token       string          `json:"token,omitempty"` // echoes requestBody.Token, see roundBody
	Scheme      string          `json:"scheme"`
	Accuracy    float64         `json:"accuracy"`
	Time        float64         `json:"time"`
	Rounds      int             `json:"rounds"`
	DeviceBytes int64           `json:"deviceBytes"`
	ServerBytes int64           `json:"serverBytes"`
	EvalBatches int64           `json:"evalBatches,omitempty"`
	EvalSeconds float64         `json:"evalSeconds,omitempty"`
	CurveName   string          `json:"curveName,omitempty"`
	Curve       []metrics.Point `json:"curve,omitempty"`
	// ParamCount is the final parameter vector's length. The vector
	// itself travels as the split body's raw64 section, not in the JSON;
	// the receiver validates the count before allocating.
	ParamCount int `json:"paramCount,omitempty"`
	// Trace ships the worker-side spans home (see wireTrace). Excluded
	// from the byte-determinism oracle, which compares rebuilt
	// hadfl.Result values, never raw frames.
	Trace *wireTrace `json:"trace,omitempty"`
}

func toResultBody(res *hadfl.Result) resultBody {
	b := resultBody{
		Scheme:      res.Scheme,
		Accuracy:    res.Accuracy,
		Time:        res.Time,
		Rounds:      res.Rounds,
		DeviceBytes: res.DeviceBytes,
		ServerBytes: res.ServerBytes,
		EvalBatches: res.EvalBatches,
		EvalSeconds: res.EvalSeconds,
	}
	if res.Series != nil {
		b.CurveName = res.Series.Name
		b.Curve = res.Series.Points
	}
	return b
}

// toResult rebuilds the hadfl.Result around params, the decoded raw64
// section.
func (b resultBody) toResult(params []float64) *hadfl.Result {
	return &hadfl.Result{
		Scheme:      b.Scheme,
		Accuracy:    b.Accuracy,
		Time:        b.Time,
		Rounds:      b.Rounds,
		DeviceBytes: b.DeviceBytes,
		ServerBytes: b.ServerBytes,
		EvalBatches: b.EvalBatches,
		EvalSeconds: b.EvalSeconds,
		Series:      &metrics.Series{Name: b.CurveName, Points: b.Curve},
		FinalParams: params,
	}
}

// errorBody is a terminal failure. Busy marks a capacity rejection
// (retryable elsewhere); Canceled/Timeout mirror the context error the
// worker's run returned, so the dispatcher can rebuild an errors.Is-
// compatible error on its side of the wire. Token echoes the request's
// instance token; it is empty only when the worker could not decode
// the request at all (the dispatcher treats such unattributable
// rejections of a pending sequence as transient).
type errorBody struct {
	Token    string `json:"token,omitempty"`
	Message  string `json:"message"`
	Canceled bool   `json:"canceled,omitempty"`
	Timeout  bool   `json:"timeout,omitempty"`
	Busy     bool   `json:"busy,omitempty"`
	// Trace ships the worker-side spans home even on failure, so an
	// errored run's trace still shows where the time went.
	Trace *wireTrace `json:"trace,omitempty"`
}

// sendFrame JSON-encodes body into a dispatch frame and sends it. A
// frame that cannot be built (oversized body) or sent surfaces as an
// error; transports treat unreachable peers as timeouts, not errors,
// so an error here means a local/structural problem.
func sendFrame(t p2p.Transport, kind p2p.Kind, to, seq int, body any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("dispatch: encode %v: %w", kind, err)
	}
	m, err := p2p.NewDispatchFrame(kind, to, seq, data)
	if err != nil {
		return fmt.Errorf("dispatch: frame %v: %w", kind, err)
	}
	return t.Send(m)
}

// decodeBody validates a dispatch frame and unmarshals its JSON body.
func decodeBody(m p2p.Message, into any) error {
	data, err := p2p.DispatchBody(m)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("dispatch: decode %v body: %w", m.Kind, err)
	}
	return nil
}

// Split bodies: a terminal result body is not plain JSON but a
// two-section container —
//
//	"HDW1" | uint32 jsonLen (LE) | jsonLen bytes of JSON | raw64 params
//
// so the parameter vector ships as its IEEE-754 bits instead of
// base-10 JSON text. Error bodies stay plain JSON.

// splitMagic opens every split body.
var splitMagic = []byte("HDW1")

// sendResult ships one terminal result: body as the JSON section and
// params as the raw64 section of one split body, handed to the chunk
// streamer, which stays a single frame when the body fits and
// otherwise streams it — lifting the per-frame cap off the model size.
// It sets body.ParamCount and reports how many chunk frames the body
// took (0 = a single frame).
func sendResult(t p2p.Transport, to, seq int, body resultBody, params []float64) (int, error) {
	body.ParamCount = len(params)
	jsonData, err := json.Marshal(body)
	if err != nil {
		return 0, fmt.Errorf("dispatch: encode result: %w", err)
	}
	out := make([]byte, 0, len(splitMagic)+4+len(jsonData)+8*len(params))
	out = append(out, splitMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(jsonData)))
	out = append(out, jsonData...)
	return p2p.SendChunked(t, p2p.KindDispatchResult, to, seq, p2p.AppendRaw64(out, params))
}

// decodeSplitBody separates a result body into its JSON and raw64
// sections. A body without the magic is corrupt.
func decodeSplitBody(body []byte) (jsonData, paramData []byte, err error) {
	if len(body) < len(splitMagic)+4 || !bytes.Equal(body[:len(splitMagic)], splitMagic) {
		return nil, nil, fmt.Errorf("dispatch: result body lacks the %q split-body header", splitMagic)
	}
	n := int(binary.LittleEndian.Uint32(body[len(splitMagic):]))
	rest := body[len(splitMagic)+4:]
	if n > len(rest) {
		return nil, nil, fmt.Errorf("dispatch: split body claims %d JSON bytes, has %d", n, len(rest))
	}
	return rest[:n], rest[n:], nil
}
