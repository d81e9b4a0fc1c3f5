package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"go/build"
	"hash/crc32"
	"io"
	"reflect"
	"testing"

	"kertbn/internal/stats"
	"kertbn/internal/wire/binfmt"
)

var sampledCtx = TraceContext{TraceID: 0xA1B2C3D4E5F60718, SpanID: 0x1122334455667788, SendUnixNS: 1_700_000_000_123_456_789, Attempt: 2}

func testSegment() *binfmt.RowSegment {
	return &binfmt.RowSegment{From: 3, To: 9, Col: []float64{1.5, -2.25, 0}}
}

// frame encodes m with Encode, failing the test on error.
func frame(t testing.TB, m Marshaler, tc TraceContext) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := Encode(&buf, m, tc)
	if err != nil {
		t.Fatal(err)
	}
	if n != buf.Len() {
		t.Fatalf("Encode reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// anyMsg decodes whichever binfmt message a frame carries, sniffing the
// type byte the way the monitor server and the relay do.
type anyMsg struct {
	typ   byte
	mb    binfmt.MeasurementBatch
	seg   binfmt.RowSegment
	delta binfmt.CPDDelta
	env   binfmt.Journaled
	ack   binfmt.Ack
	tel   binfmt.TelemetrySnapshot
}

func (m *anyMsg) UnmarshalWire(p []byte) error {
	typ, ok := binfmt.MsgType(p)
	if !ok {
		return fmt.Errorf("%w: unsniffable payload", binfmt.ErrMalformed)
	}
	m.typ = typ
	switch typ {
	case binfmt.TypeMeasurementBatch:
		return m.mb.UnmarshalWire(p)
	case binfmt.TypeRowSegment:
		return m.seg.UnmarshalWire(p)
	case binfmt.TypeCPDDelta:
		return m.delta.UnmarshalWire(p)
	case binfmt.TypeJournaled:
		return m.env.UnmarshalWire(p)
	case binfmt.TypeAck:
		return m.ack.UnmarshalWire(p)
	default:
		return m.tel.UnmarshalWire(p)
	}
}

// TestGoldenFrames pins the exact wire bytes of one untraced (0x82) and one
// traced (0x83) frame. The expected bytes were recorded from the encoder
// before gob and the legacy layout were removed, so a pass proves the frame
// layout did not move.
func TestGoldenFrames(t *testing.T) {
	mb := &binfmt.MeasurementBatch{AgentID: "agent-7", Batch: []binfmt.Measurement{
		{RequestID: 1001, Column: 0, Value: 0.125},
		{RequestID: 1001, Column: 3, Value: -2.5},
	}}
	seg := &binfmt.RowSegment{From: 2, To: 5, Col: []float64{1.5, -0.25, 1e-3}}
	for _, c := range []struct {
		name string
		m    Marshaler
		tc   TraceContext
		want string
	}{
		{"batch/0x82", mb, TraceContext{},
			"4b42820000002bec5a53ba010102076167656e742d3700000000000003e902000300000000023fc0000000000000c004000000000000"},
		{"segment/0x83", seg, sampledCtx,
			"4b4283000000237abc1e87a1b2c3d4e5f60718112233445566778817979cfe3d85cd150202010000020005000000033ff8000000000000bfd00000000000003f50624dd2f1a9fc"},
	} {
		got := hex.EncodeToString(frame(t, c.m, c.tc))
		if got != c.want {
			t.Errorf("%s frame moved:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	rng := stats.NewRNG(11)
	for trial := 0; trial < 200; trial++ {
		payload := make([]byte, rng.Intn(4096))
		for i := range payload {
			payload[i] = byte(rng.Uint64())
		}
		tc := TraceContext{}
		if trial%2 == 1 {
			tc = sampledCtx
		}
		var buf bytes.Buffer
		n, err := WriteBinaryPayload(&buf, payload, tc)
		if err != nil {
			t.Fatal(err)
		}
		if n != buf.Len() {
			t.Fatalf("WriteBinaryPayload reported %d bytes, wrote %d", n, buf.Len())
		}
		got, gotTC, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) || gotTC != tc {
			t.Fatalf("trial %d: round trip mismatch (%d bytes, ctx %+v)", trial, len(payload), gotTC)
		}
	}
}

// TestEncodeDecodeArbitraryPayloads is the codec property test: arbitrary
// seeded batch/segment/CPD payloads round-trip exactly, and multiple frames
// on one stream decode independently.
func TestEncodeDecodeArbitraryPayloads(t *testing.T) {
	rng := stats.NewRNG(23)
	var buf bytes.Buffer
	var want []any
	for trial := 0; trial < 50; trial++ {
		seg := &binfmt.RowSegment{From: rng.Intn(100), To: rng.Intn(100), Col: make([]float64, 1+rng.Intn(200))}
		for i := range seg.Col {
			seg.Col[i] = rng.Normal(0, 10)
		}
		mb := &binfmt.MeasurementBatch{AgentID: "agent", Batch: make([]binfmt.Measurement, 1+rng.Intn(30))}
		for i := range mb.Batch {
			mb.Batch[i] = binfmt.Measurement{RequestID: int64(rng.Uint64() >> 1), Column: int32(rng.Intn(8)), Value: rng.Float64()}
		}
		card := 2 + rng.Intn(4)
		parents := []int{2 + rng.Intn(3)}
		delta := &binfmt.CPDDelta{Node: rng.Intn(100), Kind: binfmt.KindTabular, Card: card, ParentCard: parents,
			P: make([]float64, card*parents[0])}
		for i := range delta.P {
			delta.P[i] = rng.Float64()
		}
		for _, m := range []Marshaler{seg, mb, delta} {
			if _, err := Encode(&buf, m, TraceContext{}); err != nil {
				t.Fatal(err)
			}
		}
		want = append(want, seg, mb, delta)
	}
	for i, w := range want {
		var m anyMsg
		if _, err := Decode(&buf, 0, &m); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		var got any
		switch m.typ {
		case binfmt.TypeRowSegment:
			got = &m.seg
		case binfmt.TypeMeasurementBatch:
			got = &m.mb
		default:
			got = &m.delta
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("frame %d: decoded %+v, want %+v", i, got, w)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("%d stray bytes after decoding every frame", buf.Len())
	}
}

// checkTruncations asserts that every proper prefix of raw fails to decode
// with EOF semantics: io.EOF when empty, io.ErrUnexpectedEOF otherwise.
func checkTruncations(t *testing.T, raw []byte) {
	t.Helper()
	for cut := 0; cut < len(raw); cut++ {
		var seg binfmt.RowSegment
		_, err := Decode(bytes.NewReader(raw[:cut]), 0, &seg)
		if err == nil {
			t.Fatalf("decoding %d/%d bytes succeeded", cut, len(raw))
		}
		if cut == 0 && !errors.Is(err, io.EOF) {
			t.Fatalf("empty stream error = %v, want io.EOF", err)
		}
		if cut > 0 && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d error = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestTruncatedFrames(t *testing.T) {
	checkTruncations(t, frame(t, testSegment(), TraceContext{}))
}

func TestFlaggedFrameTruncation(t *testing.T) {
	checkTruncations(t, frame(t, testSegment(), sampledCtx))
}

func TestCorruptedFrameIsSkippable(t *testing.T) {
	for _, tc := range []TraceContext{{}, sampledCtx} {
		first := frame(t, testSegment(), tc)
		raw := append(first, frame(t, &binfmt.RowSegment{From: 4, To: 5, Col: []float64{6}}, tc)...)
		raw[len(first)-1] ^= 0x10 // corrupt the first frame's payload
		r := bytes.NewReader(raw)
		var seg binfmt.RowSegment
		if _, err := Decode(r, 0, &seg); !errors.Is(err, ErrChecksum) {
			t.Fatalf("corrupted frame error = %v, want ErrChecksum", err)
		}
		// The stream stays aligned: the next frame decodes cleanly.
		got, err := Decode(r, 0, &seg)
		if err != nil {
			t.Fatalf("frame after corrupted one failed: %v", err)
		}
		if seg.From != 4 || seg.To != 5 || got != tc {
			t.Fatalf("post-skip segment = %+v ctx %+v", seg, got)
		}
	}
}

func TestLengthCapRejectsBeforeAllocating(t *testing.T) {
	for _, flag := range []byte{flagUntraced, flagTraced} {
		// A header alone claiming 2 GiB: the reader must refuse from the
		// header, never trying to allocate or read the body.
		hdr := make([]byte, headerSize)
		binary.BigEndian.PutUint16(hdr[0:2], Magic)
		hdr[2] = flag
		binary.BigEndian.PutUint32(hdr[3:7], 1<<31-1)
		if _, _, err := ReadFrame(bytes.NewReader(hdr), 0); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("flag 0x%02x: giant frame error = %v, want ErrTooLarge", flag, err)
		}
	}
	if _, err := WriteBinaryPayload(io.Discard, make([]byte, DefaultMaxFrame+1), TraceContext{}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized write error = %v, want ErrTooLarge", err)
	}
}

func TestBadMagic(t *testing.T) {
	raw := frame(t, testSegment(), TraceContext{})
	raw[0], raw[1] = 0xDE, 0xAD
	if _, _, err := ReadFrame(bytes.NewReader(raw), 0); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic error = %v, want ErrBadMagic", err)
	}
}

// TestUnknownFlagBitsRejected: 0x82 and 0x83 are the only valid flag bytes.
// Every other value is ErrBadFlag — an unflagged header (whose third byte
// would be a length MSB, 0x00 or 0x01), the traced-gob 0x81, a bare 0x80,
// and unknown flag bits alike.
func TestUnknownFlagBitsRejected(t *testing.T) {
	raw := frame(t, testSegment(), sampledCtx)
	for flag := 0; flag < 256; flag++ {
		raw[2] = byte(flag)
		_, _, err := ReadFrame(bytes.NewReader(raw), 0)
		switch byte(flag) {
		case flagUntraced:
			// The traced body now reads as an untraced frame of the same
			// length; the CRC over the shorter body does not match.
			if !errors.Is(err, ErrChecksum) {
				t.Fatalf("flag 0x82 over a traced body = %v", err)
			}
		case flagTraced:
			if err != nil {
				t.Fatalf("flag 0x83 = %v", err)
			}
		default:
			if !errors.Is(err, ErrBadFlag) {
				t.Fatalf("flag 0x%02x = %v, want ErrBadFlag", flag, err)
			}
		}
	}
}

func TestFlaggedFrameCRCCoversExtension(t *testing.T) {
	raw := frame(t, rawPayload("payload"), sampledCtx)
	raw = append(raw, frame(t, rawPayload("next"), TraceContext{})...)
	raw[headerSize+3] ^= 0x01 // flip a bit inside the trace extension
	r := bytes.NewReader(raw)
	if _, _, err := ReadFrame(r, 0); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted extension = %v, want ErrChecksum", err)
	}
	// Stream stays aligned: the following frame still decodes.
	got, _, err := ReadFrame(r, 0)
	if err != nil || string(got) != "next" {
		t.Fatalf("frame after corrupted traced frame: %q %v", got, err)
	}
}

func TestFlaggedFrameRespectsSizeCap(t *testing.T) {
	raw := frame(t, rawPayload(make([]byte, 2048)), sampledCtx)
	if _, _, err := ReadFrame(bytes.NewReader(raw), 1024); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("capped traced frame = %v, want ErrTooLarge", err)
	}
}

// TestFlaggedFrameRoundTrip: a traced frame is exactly header + extension +
// payload long and ReadFrame hands back the payload and trace context.
func TestFlaggedFrameRoundTrip(t *testing.T) {
	payload := []byte("traced batch")
	var buf bytes.Buffer
	n, err := WriteBinaryPayload(&buf, payload, sampledCtx)
	if err != nil {
		t.Fatal(err)
	}
	if n != buf.Len() {
		t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
	}
	if want := headerSize + traceExtSize + len(payload); n != want {
		t.Fatalf("traced frame is %d bytes, want %d", n, want)
	}
	got, tc, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch")
	}
	if tc != sampledCtx {
		t.Fatalf("context = %+v, want %+v", tc, sampledCtx)
	}
}

// TestEncodeDecodeCtxRoundTrip: a traced message hands its trace context
// back through Decode; an untraced one on the same stream decodes with the
// zero context.
func TestEncodeDecodeCtxRoundTrip(t *testing.T) {
	want := testSegment()
	var buf bytes.Buffer
	if _, err := Encode(&buf, want, sampledCtx); err != nil {
		t.Fatal(err)
	}
	if _, err := Encode(&buf, want, TraceContext{}); err != nil {
		t.Fatal(err)
	}
	for _, wantTC := range []TraceContext{sampledCtx, {}} {
		var got binfmt.RowSegment
		tc, err := Decode(&buf, 0, &got)
		if err != nil || tc != wantTC {
			t.Fatalf("decode: ctx %+v err %v, want ctx %+v", tc, err, wantTC)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("payload mismatch: %+v", got)
		}
	}
}

func TestBinaryFrameRoundTrip(t *testing.T) {
	for _, tc := range []TraceContext{{}, sampledCtx} {
		buf, err := AppendBinaryFrame(nil, testSegment(), tc)
		if err != nil {
			t.Fatal(err)
		}
		wantFlag := flagUntraced
		if tc.Sampled() {
			wantFlag = flagTraced
		}
		if buf[2] != wantFlag {
			t.Fatalf("flag byte = 0x%02x, want 0x%02x", buf[2], wantFlag)
		}
		var seg binfmt.RowSegment
		gotTC, err := Decode(bytes.NewReader(buf), 0, &seg)
		if err != nil {
			t.Fatal(err)
		}
		if gotTC != tc || !reflect.DeepEqual(&seg, testSegment()) {
			t.Fatalf("decoded %+v ctx %+v, want %+v", seg, gotTC, tc)
		}
	}
}

func TestWriteBinaryPayloadMatchesAppend(t *testing.T) {
	seg := testSegment()
	payload, err := seg.AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []TraceContext{{}, sampledCtx} {
		framed, err := AppendBinaryFrame(nil, seg, tc)
		if err != nil {
			t.Fatal(err)
		}
		var echoed bytes.Buffer
		if _, err := WriteBinaryPayload(&echoed, payload, tc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(framed, echoed.Bytes()) {
			t.Fatalf("relay echo framing diverges from sender framing (sampled=%v)", tc.Sampled())
		}
	}
}

func TestBinaryFrameCorruptionAndTruncation(t *testing.T) {
	full := frame(t, testSegment(), sampledCtx)
	// Payload corruption -> ErrChecksum, frame fully consumed.
	var next bytes.Buffer
	next.Write(full)
	next.Bytes()[len(full)-1] ^= 0x40
	WriteBinaryPayload(&next, []byte("after"), TraceContext{})
	if _, _, err := ReadFrame(&next, 0); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted frame = %v, want ErrChecksum", err)
	}
	if got, _, err := ReadFrame(&next, 0); err != nil || string(got) != "after" {
		t.Fatalf("stream desynced after corrupted frame: %q %v", got, err)
	}
	checkTruncations(t, full)
	// Size cap applies to the payload a frame declares.
	big := frame(t, &binfmt.RowSegment{From: 1, To: 2, Col: make([]float64, 1024)}, TraceContext{})
	if _, _, err := ReadFrame(bytes.NewReader(big), 64); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("capped frame = %v, want ErrTooLarge", err)
	}
}

// malformedFrame is a CRC-valid frame whose payload fails binfmt
// validation.
func malformedFrame() []byte {
	garbage := []byte{0x7F, 0x00, 0x01}
	raw := []byte{byte(Magic >> 8), byte(Magic & 0xFF), flagUntraced, 0, 0, 0, byte(len(garbage))}
	raw = binary.BigEndian.AppendUint32(raw, crc32.ChecksumIEEE(garbage))
	return append(raw, garbage...)
}

func TestMalformedBinaryPayloadKeepsStreamAligned(t *testing.T) {
	// A CRC-valid frame whose payload fails binfmt validation must surface
	// ErrMalformed with the stream aligned for the next frame — the relay
	// and the monitor server skip such frames and keep serving.
	var stream bytes.Buffer
	stream.Write(malformedFrame())
	Encode(&stream, &binfmt.RowSegment{From: 5, To: 6}, TraceContext{})

	var m anyMsg
	if _, err := Decode(&stream, 0, &m); !errors.Is(err, binfmt.ErrMalformed) {
		t.Fatalf("garbage payload = %v, want ErrMalformed", err)
	}
	if _, err := Decode(&stream, 0, &m); err != nil || m.seg.From != 5 {
		t.Fatalf("stream desynced after malformed payload: %+v %v", m.seg, err)
	}
}

// TestAppendBinaryFrameZeroAlloc is the encode-side allocation gate: with a
// warm buffer, framing a measurement batch costs zero allocations.
func TestAppendBinaryFrameZeroAlloc(t *testing.T) {
	mb := &binfmt.MeasurementBatch{AgentID: "agent-1"}
	for i := 0; i < 8; i++ {
		mb.Batch = append(mb.Batch, binfmt.Measurement{RequestID: int64(100 + i/4), Column: int32(i % 4), Value: float64(i)})
	}
	var buf []byte
	var err error
	if buf, err = AppendBinaryFrame(buf[:0], mb, sampledCtx); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(500, func() {
		buf, err = AppendBinaryFrame(buf[:0], mb, sampledCtx)
		if err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("AppendBinaryFrame allocates %v per frame, want 0", avg)
	}
}

// TestTransportsDoNotImportGob keeps gob off the wire: neither the frame
// codec nor the two TCP transports may import encoding/gob outside tests.
func TestTransportsDoNotImportGob(t *testing.T) {
	for _, dir := range []string{".", "../monitor", "../decentral"} {
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, imp := range pkg.Imports {
			if imp == "encoding/gob" {
				t.Errorf("package %s imports encoding/gob", pkg.ImportPath)
			}
		}
	}
}

// BenchmarkAppendBinaryFrame reports the per-frame encode cost of the
// sender's hot path.
func BenchmarkAppendBinaryFrame(b *testing.B) {
	mb := &binfmt.MeasurementBatch{AgentID: "agent-1"}
	for i := 0; i < 8; i++ {
		mb.Batch = append(mb.Batch, binfmt.Measurement{RequestID: int64(100 + i/4), Column: int32(i % 4), Value: float64(i)})
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendBinaryFrame(buf[:0], mb, TraceContext{})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzDecodeMessage asserts the never-panic contract of the receive path:
// whatever bytes arrive — truncated frames, corrupted payloads, hostile
// lengths or flags, CRC-valid garbage — Decode returns an error or a
// message, never panics.
func FuzzDecodeMessage(f *testing.F) {
	seg := testSegment()
	mb := &binfmt.MeasurementBatch{AgentID: "a", Batch: []binfmt.Measurement{{RequestID: 1, Column: 2, Value: 3.5}}}
	delta := &binfmt.CPDDelta{Node: 1, Kind: binfmt.KindTabular, Card: 2, P: []float64{0.25, 0.75}}
	inner, _ := mb.AppendWire(nil)
	env := &binfmt.Journaled{Origin: 3, Seq: 4, Inner: inner}
	tel := &binfmt.TelemetrySnapshot{Source: "n", Epoch: 1, Seq: 2,
		Counters: []binfmt.TelemetryCounter{{Name: "x", Delta: 1}}}
	untraced := frame(f, seg, TraceContext{})
	corrupt := append([]byte(nil), untraced...)
	corrupt[len(corrupt)-1] ^= 0x01
	giant := append([]byte(nil), untraced[:headerSize]...)
	binary.BigEndian.PutUint32(giant[3:7], 1<<31-1)
	for _, seed := range [][]byte{
		untraced,
		frame(f, mb, sampledCtx),
		{},
		frame(f, delta, TraceContext{}),
		frame(f, env, sampledCtx),
		append(frame(f, mb, TraceContext{}), frame(f, seg, sampledCtx)...),
		append(corrupt, frame(f, &binfmt.Ack{Origin: 3, Seq: 4}, TraceContext{})...),
		frame(f, seg, sampledCtx)[:headerSize+5], // cut mid-extension
		{0x4B, 0x42, 0xFF, 0, 0, 0, 1, 0, 0, 0, 0},
		giant,
		append(malformedFrame(), frame(f, tel, TraceContext{})...),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Drain the stream the way the monitor server and the relay do:
		// decode frames until a non-recoverable error, skipping checksum
		// failures and malformed-but-CRC-valid payloads.
		r := bytes.NewReader(data)
		var m anyMsg
		for i := 0; i < 64; i++ {
			_, err := Decode(r, 1<<20, &m)
			if err == nil || errors.Is(err, ErrChecksum) || errors.Is(err, binfmt.ErrMalformed) {
				continue
			}
			break
		}
	})
}
