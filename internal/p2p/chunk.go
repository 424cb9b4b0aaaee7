package p2p

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Chunk streaming: a dispatch body larger than one frame travels as a
// sequence of KindDispatchChunk frames followed by the terminal frame
// (result or error kind) carrying a fixed trailer instead of the body.
// The layout, per frame:
//
//	chunk i   Kind=KindDispatchChunk, Round=seq, Chunk=i (0-based),
//	          Meta=chunk byte length, Payload=packed chunk bytes
//	terminal  Kind=result/error kind, Round=seq, Chunk=n (the chunk
//	          count, > 0), Meta=12, Payload=packed trailer:
//	          uint64 total body length | uint32 CRC-32 (IEEE) of the
//	          whole body, little-endian
//
// A terminal frame with Chunk=0 is the single-frame form: its body is
// the whole body. Receivers dispatch on the Chunk field; senders choose
// by body size alone.
//
// Bounds: each chunk body obeys MaxDispatchBody like any other frame
// (the per-chunk bound UnpackBytes enforces), and a reassembled stream
// is capped at MaxDispatchStream — so a corrupt chunk count or length
// can demand neither one absurd allocation nor an unbounded buffer.

// DispatchChunkBytes is the target chunk size senders split at (4 MiB,
// a multiple of 8 so every non-final chunk is word-aligned). It is
// deliberately below MaxDispatchBody: receivers accept any chunk up to
// the frame bound, so the two constants can move independently.
const DispatchChunkBytes = 4 << 20

// MaxDispatchStream bounds a reassembled chunk-streamed body (1 GiB) —
// roomy enough for models two orders of magnitude past today's, tight
// enough that a forged chunk sequence cannot buffer without end.
const MaxDispatchStream = 1 << 30

// chunkTrailerLen is the terminal frame's body length when it closes a
// chunk stream: uint64 total length + uint32 CRC-32.
const chunkTrailerLen = 12

// ChunkCount reports how many chunk frames SplitChunks produces for a
// body of n bytes (0 means the body fits one monolithic frame).
func ChunkCount(n int) int {
	if n <= DispatchChunkBytes {
		return 0
	}
	return (n + DispatchChunkBytes - 1) / DispatchChunkBytes
}

// SplitChunks encodes body as dispatch frames: a single monolithic
// frame when it fits DispatchChunkBytes, otherwise a chunk sequence
// closed by a trailer-carrying terminal frame of the given kind. The
// whole body is byte-packed exactly once into one word buffer and each
// chunk's payload is a sub-slice of it, so a stream costs one payload
// allocation however many frames it spans (pinned by
// BenchmarkSplitChunks).
func SplitChunks(kind Kind, to, seq int, body []byte) ([]Message, error) {
	if !IsDispatchKind(kind) || kind == KindDispatchChunk {
		return nil, fmt.Errorf("p2p: %v cannot terminate a chunk stream", kind)
	}
	if len(body) > MaxDispatchStream {
		return nil, fmt.Errorf("p2p: dispatch body %d bytes exceeds stream cap %d", len(body), MaxDispatchStream)
	}
	n := ChunkCount(len(body))
	if n == 0 {
		m, err := NewDispatchFrame(kind, to, seq, body)
		if err != nil {
			return nil, err
		}
		return []Message{m}, nil
	}
	// One packing pass for the whole stream. DispatchChunkBytes is a
	// multiple of 8, so every non-final chunk's payload is a word-aligned
	// sub-slice; the final chunk's zero padding lives in the shared
	// backing array's tail, exactly where PackBytes would put it.
	words := PackBytes(body)
	const chunkWords = DispatchChunkBytes / 8
	frames := make([]Message, 0, n+1)
	for i := 0; i < n; i++ {
		lo := i * DispatchChunkBytes
		hi := lo + DispatchChunkBytes
		if hi > len(body) {
			hi = len(body)
		}
		frames = append(frames, Message{
			Kind:    KindDispatchChunk,
			To:      to,
			Round:   seq,
			Chunk:   i,
			Meta:    hi - lo,
			Version: DispatchVersion,
			Payload: words[i*chunkWords : (i*DispatchChunkBytes+(hi-lo)+7)/8],
		})
	}
	var trailer [chunkTrailerLen]byte
	binary.LittleEndian.PutUint64(trailer[:], uint64(len(body)))
	binary.LittleEndian.PutUint32(trailer[8:], crc32.ChecksumIEEE(body))
	term, err := NewDispatchFrame(kind, to, seq, trailer[:])
	if err != nil {
		return nil, err
	}
	term.Chunk = n
	return append(frames, term), nil
}

// SendChunked splits body with SplitChunks and sends every frame in
// order; it reports how many chunk frames preceded the terminal one.
// The first send error aborts the stream (the receiver's reassembler
// rejects the torn remainder by count, length or checksum).
func SendChunked(t Transport, kind Kind, to, seq int, body []byte) (chunks int, err error) {
	frames, err := SplitChunks(kind, to, seq, body)
	if err != nil {
		return 0, err
	}
	for _, m := range frames {
		if err := t.Send(m); err != nil {
			return len(frames) - 1, err
		}
	}
	return len(frames) - 1, nil
}

// ChunkStream reassembles one peer's chunk sequence. Add every
// KindDispatchChunk frame in arrival order (transports deliver
// per-peer frames in order), then hand the terminal frame to Finish.
// The zero value is ready to use. Methods never panic on malformed
// frames — every inconsistency is an error (FuzzChunkReassembly pins
// that), and after any error the stream is poisoned garbage the owner
// should drop.
type ChunkStream struct {
	buf  []byte
	next int
}

// Len reports how many body bytes have been buffered so far.
func (s *ChunkStream) Len() int { return len(s.buf) }

// Chunks reports how many chunk frames have been accepted so far.
func (s *ChunkStream) Chunks() int { return s.next }

// Add validates and buffers one chunk frame.
func (s *ChunkStream) Add(m Message) error {
	if m.Kind != KindDispatchChunk {
		return fmt.Errorf("p2p: %v is not a chunk frame", m.Kind)
	}
	if m.Version != DispatchVersion {
		return fmt.Errorf("%w, chunk has %v", ErrDispatchVersion, m.Version)
	}
	if m.Chunk != s.next {
		return fmt.Errorf("p2p: chunk %d out of order (want %d)", m.Chunk, s.next)
	}
	if m.Meta == 0 {
		return fmt.Errorf("p2p: empty chunk %d", m.Chunk)
	}
	part, err := UnpackBytes(m.Payload, m.Meta)
	if err != nil {
		return err
	}
	if len(s.buf)+len(part) > MaxDispatchStream {
		return fmt.Errorf("p2p: chunk stream exceeds cap %d", MaxDispatchStream)
	}
	s.buf = append(s.buf, part...)
	s.next++
	return nil
}

// Finish validates the stream-closing terminal frame (Chunk = chunk
// count > 0, body = total-length + CRC-32 trailer) against what Add
// buffered and returns the reassembled body.
func (s *ChunkStream) Finish(m Message) ([]byte, error) {
	if m.Chunk <= 0 {
		return nil, fmt.Errorf("p2p: terminal frame with chunk count %d does not close a stream", m.Chunk)
	}
	if m.Chunk != s.next {
		return nil, fmt.Errorf("p2p: terminal frame claims %d chunks, stream has %d", m.Chunk, s.next)
	}
	trailer, err := DispatchBody(m)
	if err != nil {
		return nil, err
	}
	if len(trailer) != chunkTrailerLen {
		return nil, fmt.Errorf("p2p: chunk trailer is %d bytes, want %d", len(trailer), chunkTrailerLen)
	}
	total := binary.LittleEndian.Uint64(trailer)
	if total != uint64(len(s.buf)) {
		return nil, fmt.Errorf("p2p: chunk stream reassembled %d bytes, trailer claims %d", len(s.buf), total)
	}
	if sum := crc32.ChecksumIEEE(s.buf); sum != binary.LittleEndian.Uint32(trailer[8:]) {
		return nil, fmt.Errorf("p2p: chunk stream checksum mismatch")
	}
	return s.buf, nil
}
