package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic marks the start of every frame ("KB" for kertbn).
const Magic uint16 = 0x4B42

// DefaultMaxFrame caps payload sizes at 16 MiB — far above any CPD or
// monitoring batch this system ships, far below an allocation bomb.
const DefaultMaxFrame = 16 << 20

// Frame layout:
//
//	magic(2) | flag(1) | length(4) | crc32(4) | [ext(25)] | payload
//
// Flag registry — exactly two flag bytes are valid; every other value
// (including the bytes an unflagged header would put there) is rejected
// with ErrBadFlag:
//
//	0x82 — untraced: no extension; the CRC covers the payload.
//	0x83 — traced: the 25-byte trace extension follows the header,
//	       trace_id(8) | span_id(8) | send_unix_ns(8) | attempt(1),
//	       big-endian, and the CRC covers ext||payload, so trace
//	       corruption is detected like payload corruption.
//
// The payload is always a fixed-layout binfmt message.
const (
	flagUntraced byte = 0x82
	flagTraced   byte = 0x83

	traceExtSize = 8 + 8 + 8 + 1
	headerSize   = 2 + 1 + 4 + 4
)

var (
	// ErrBadMagic means the stream is desynchronized or speaking another
	// protocol; the connection cannot be salvaged.
	ErrBadMagic = errors.New("wire: bad frame magic")
	// ErrTooLarge means the declared payload exceeds the cap; rejected
	// before allocation.
	ErrTooLarge = errors.New("wire: frame exceeds size cap")
	// ErrChecksum means the payload arrived corrupted. The full frame has
	// been consumed, so the caller may skip it and read the next one.
	ErrChecksum = errors.New("wire: frame checksum mismatch")
	// ErrBadFlag means the flag byte is neither 0x82 nor 0x83; the stream
	// cannot be realigned.
	ErrBadFlag = errors.New("wire: unknown frame flag")
)

// Marshaler is implemented by message types with a fixed binary layout
// (binfmt.MeasurementBatch and friends). AppendWire appends the payload
// encoding to dst and returns the extended slice, allocating only when dst
// lacks capacity.
type Marshaler interface {
	AppendWire(dst []byte) ([]byte, error)
}

// Unmarshaler is the decoding half: UnmarshalWire decodes a fixed-layout
// payload in place, reusing the receiver's backing arrays where possible.
type Unmarshaler interface {
	UnmarshalWire(payload []byte) error
}

// TraceContext is the cross-process trace extension a traced frame
// carries: which trace and span caused the send, when it left the sender's
// clock, and which retry attempt it was. The zero value means "untraced"
// and encodes as a 0x82 frame without extension.
type TraceContext struct {
	TraceID    uint64
	SpanID     uint64
	SendUnixNS int64
	Attempt    uint8
}

// Sampled reports whether the context carries a live trace.
func (tc TraceContext) Sampled() bool { return tc.TraceID != 0 }

func (tc TraceContext) appendExt(b []byte) []byte {
	var ext [traceExtSize]byte
	binary.BigEndian.PutUint64(ext[0:8], tc.TraceID)
	binary.BigEndian.PutUint64(ext[8:16], tc.SpanID)
	binary.BigEndian.PutUint64(ext[16:24], uint64(tc.SendUnixNS))
	ext[24] = tc.Attempt
	return append(b, ext[:]...)
}

func traceContextFromExt(ext []byte) TraceContext {
	return TraceContext{
		TraceID:    binary.BigEndian.Uint64(ext[0:8]),
		SpanID:     binary.BigEndian.Uint64(ext[8:16]),
		SendUnixNS: int64(binary.BigEndian.Uint64(ext[16:24])),
		Attempt:    ext[24],
	}
}

// AppendBinaryFrame appends one complete frame carrying m to dst and
// returns the extended slice. The zero trace context produces an
// extension-free frame (flag 0x82); a sampled one produces the traced
// layout (flag 0x83). On error dst is returned truncated to its original
// length. A sender that reuses dst across calls encodes frames with zero
// steady-state allocations.
func AppendBinaryFrame(dst []byte, m Marshaler, tc TraceContext) ([]byte, error) {
	start := len(dst)
	flag := flagUntraced
	extSize := 0
	if tc.Sampled() {
		flag = flagTraced
		extSize = traceExtSize
	}
	// Reserve the header (and extension) bytes, then marshal the payload
	// directly after them and backfill length and CRC.
	var zero [headerSize + traceExtSize]byte
	dst = append(dst, zero[:headerSize+extSize]...)
	dst, err := m.AppendWire(dst)
	if err != nil {
		return dst[:start], fmt.Errorf("wire: encode: %w", err)
	}
	bodyStart := start + headerSize
	length := len(dst) - bodyStart - extSize
	if length > DefaultMaxFrame {
		return dst[:start], fmt.Errorf("%w: %d bytes", ErrTooLarge, length)
	}
	binary.BigEndian.PutUint16(dst[start:], Magic)
	dst[start+2] = flag
	binary.BigEndian.PutUint32(dst[start+3:], uint32(length))
	if extSize > 0 {
		// Backfill the reserved extension bytes in place: the destination
		// slice is empty but has exactly extSize capacity inside dst.
		_ = tc.appendExt(dst[bodyStart : bodyStart : bodyStart+extSize])
	}
	binary.BigEndian.PutUint32(dst[start+7:], crc32.ChecksumIEEE(dst[bodyStart:]))
	return dst, nil
}

// rawPayload marshals an already-encoded binfmt payload as itself.
type rawPayload []byte

func (p rawPayload) AppendWire(dst []byte) ([]byte, error) { return append(dst, p...), nil }

// WriteBinaryPayload frames an already-encoded binfmt payload and writes
// it, returning the bytes put on the wire. Relays use this to echo a
// payload without re-encoding it.
func WriteBinaryPayload(w io.Writer, payload []byte, tc TraceContext) (int, error) {
	buf, err := AppendBinaryFrame(nil, rawPayload(payload), tc)
	if err != nil {
		return 0, err
	}
	return w.Write(buf)
}

// Encode writes m as one frame carrying trace context (untraced when tc is
// the zero value), returning the bytes put on the wire. Callers on a hot
// path should prefer AppendBinaryFrame with a reused buffer; this helper
// allocates the frame.
func Encode(w io.Writer, m Marshaler, tc TraceContext) (int, error) {
	buf, err := AppendBinaryFrame(nil, m, tc)
	if err != nil {
		return 0, err
	}
	return w.Write(buf)
}

// Decode reads one frame and decodes its payload into u, returning the
// frame's trace context. Checksum failures return ErrChecksum and payloads
// u rejects return its error (binfmt.ErrMalformed), both wrapped and both
// with the stream still aligned, so callers choosing resilience can count
// and skip.
func Decode(r io.Reader, maxLen int, u Unmarshaler) (TraceContext, error) {
	payload, tc, err := ReadFrame(r, maxLen)
	if err != nil {
		return tc, err
	}
	if err := u.UnmarshalWire(payload); err != nil {
		return tc, fmt.Errorf("wire: decode: %w", err)
	}
	return tc, nil
}

// ReadFrame reads one frame, returning its payload and trace context (zero
// for untraced frames) and enforcing the max payload size (maxLen <= 0
// means DefaultMaxFrame). A checksum failure is reported only after the
// frame is fully consumed, so the stream stays aligned for the next read.
// Truncation surfaces as io.EOF (clean close before any header byte) or
// io.ErrUnexpectedEOF (mid-frame).
func ReadFrame(r io.Reader, maxLen int) ([]byte, TraceContext, error) {
	if maxLen <= 0 {
		maxLen = DefaultMaxFrame
	}
	var hdr [headerSize]byte
	// Read through the flag byte first, so a bad magic or flag is reported
	// as such even on a stream cut right after it.
	if _, err := io.ReadFull(r, hdr[:3]); err != nil {
		// ReadFull yields io.EOF on a clean close before any byte and
		// io.ErrUnexpectedEOF mid-header; both pass through untouched.
		return nil, TraceContext{}, err
	}
	if binary.BigEndian.Uint16(hdr[0:2]) != Magic {
		return nil, TraceContext{}, ErrBadMagic
	}
	extSize := 0
	switch flag := hdr[2]; flag {
	case flagUntraced:
	case flagTraced:
		extSize = traceExtSize
	default:
		return nil, TraceContext{}, fmt.Errorf("%w: 0x%02x", ErrBadFlag, flag)
	}
	if _, err := io.ReadFull(r, hdr[3:]); err != nil {
		return nil, TraceContext{}, unexpectedEOF(err)
	}
	length := binary.BigEndian.Uint32(hdr[3:7])
	if int64(length) > int64(maxLen) {
		return nil, TraceContext{}, fmt.Errorf("%w: %d bytes (cap %d)", ErrTooLarge, length, maxLen)
	}
	body := make([]byte, extSize+int(length))
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, TraceContext{}, unexpectedEOF(err)
	}
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(hdr[7:11]) {
		return nil, TraceContext{}, ErrChecksum
	}
	var tc TraceContext
	if extSize > 0 {
		tc = traceContextFromExt(body[:extSize])
	}
	return body[extSize:], tc, nil
}

func unexpectedEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
