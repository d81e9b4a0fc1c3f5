package binfmt

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Measurement mirrors monitor.Measurement on the wire: one monitoring-point
// observation of one request.
type Measurement struct {
	RequestID int64
	Column    int32
	Value     float64
}

// MeasurementBatch is the fixed-layout form of one agent's flushed report.
// The trace context does not ride the payload — it rides the wire frame's
// trace extension — so the payload carries only the data every reader
// needs.
//
// Layout (big-endian):
//
//	0       type = 0x01
//	1       version = 1
//	2       layout byte (layoutWide | layoutNarrow | layoutGrid)
//	3       agent-id length L (<= 255)
//	4       agent-id bytes (L)
//
// followed by one of three layouts. The encoder deterministically picks the
// narrowest one the batch fits:
//
//	wide:    count u32, then count x { requestID i64 | column i32 | value f64 }
//	narrow:  base i64 | count u32, then count x { idDelta u16 | column u8 | value f64 }
//	grid:    base i64 | ncols u8 | columns ncols x u8 | phase u8 | count u32,
//	         then count x { value f64 }
//
// The grid layout is the monitoring fast path: agents observe every column
// of every request in a fixed cyclic order, so a batch is a window onto the
// infinite sequence (base+k/ncols, columns[k%ncols]) starting at offset
// `phase` — the (requestID, column) pairs are fully determined and only the
// values ship, 8 bytes per measurement. The narrow layout handles batches
// whose ids share a 16-bit range around a base; the wide layout is the
// always-valid fallback.
type MeasurementBatch struct {
	AgentID string
	Batch   []Measurement
}

const (
	layoutWide   byte = 0
	layoutNarrow byte = 1
	layoutGrid   byte = 2
)

// AppendWire appends the batch's fixed-layout encoding to dst, implementing
// wire.Marshaler. It errors (leaving dst semantically unusable) when the
// batch cannot be represented: an agent id over 255 bytes or a column
// outside int32.
func (m *MeasurementBatch) AppendWire(dst []byte) ([]byte, error) {
	if len(m.AgentID) > 255 {
		return dst, fmt.Errorf("binfmt: agent id %d bytes exceeds 255", len(m.AgentID))
	}
	layout := m.pickLayout()
	dst = append(dst, TypeMeasurementBatch, Version, layout, byte(len(m.AgentID)))
	dst = append(dst, m.AgentID...)
	switch layout {
	case layoutGrid:
		cycleStart, cycleLen, phase, _ := m.gridShape()
		dst = binary.BigEndian.AppendUint64(dst, uint64(m.Batch[0].RequestID))
		dst = append(dst, byte(cycleLen))
		for i := 0; i < cycleLen; i++ {
			dst = append(dst, byte(m.Batch[cycleStart+i].Column))
		}
		dst = append(dst, byte(phase))
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Batch)))
		for i := range m.Batch {
			dst = appendF64(dst, m.Batch[i].Value)
		}
	case layoutNarrow:
		base := m.Batch[0].RequestID
		dst = binary.BigEndian.AppendUint64(dst, uint64(base))
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Batch)))
		for i := range m.Batch {
			dst = binary.BigEndian.AppendUint16(dst, uint16(m.Batch[i].RequestID-base))
			dst = append(dst, byte(m.Batch[i].Column))
			dst = appendF64(dst, m.Batch[i].Value)
		}
	default: // layoutWide
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Batch)))
		for i := range m.Batch {
			dst = binary.BigEndian.AppendUint64(dst, uint64(m.Batch[i].RequestID))
			dst = binary.BigEndian.AppendUint32(dst, uint32(m.Batch[i].Column))
			dst = appendF64(dst, m.Batch[i].Value)
		}
	}
	return dst, nil
}

// pickLayout chooses the narrowest valid layout, deterministically: grid
// when the (requestID, column) sequence matches the cyclic pattern, narrow
// when ids fit a u16 window over the first id and columns fit u8, else wide.
func (m *MeasurementBatch) pickLayout() byte {
	if len(m.Batch) == 0 {
		return layoutWide
	}
	if _, _, _, ok := m.gridShape(); ok {
		return layoutGrid
	}
	base := m.Batch[0].RequestID
	for i := range m.Batch {
		d := m.Batch[i].RequestID - base
		if d < 0 || d > math.MaxUint16 {
			return layoutWide
		}
		if c := m.Batch[i].Column; c < 0 || c > 255 {
			return layoutWide
		}
	}
	return layoutNarrow
}

// gridShape detects the cyclic monitoring pattern without allocating — it
// runs on every encode, inside pickLayout, so it works purely with index
// ranges into Batch. It returns the index range [cycleStart,
// cycleStart+cycleLen) of a run whose columns spell out the full cycle, and
// the phase of the batch's first measurement within that cycle; ok is false
// when the batch does not match.
//
// The batch matches when splitting it into runs of equal requestID yields
// consecutive ids and every run reads from one shared column cycle of at
// most 255 columns (the u8 the layout allots): middle runs are the full
// cycle, the first run a suffix of it and the last a prefix. A single-run
// batch is one full or partial row starting at phase 0.
func (m *MeasurementBatch) gridShape() (cycleStart, cycleLen, phase int, ok bool) {
	n := len(m.Batch)
	if n == 0 {
		return 0, 0, 0, false
	}
	for i := range m.Batch {
		if c := m.Batch[i].Column; c < 0 || c > 255 {
			return 0, 0, 0, false
		}
	}
	// runEnd finds the end of the equal-requestID run starting at i.
	runEnd := func(i int) int {
		j := i + 1
		for j < n && m.Batch[j].RequestID == m.Batch[i].RequestID {
			j++
		}
		return j
	}
	// segEq compares the column sequences of Batch[i:i+l) and Batch[j:j+l).
	segEq := func(i, j, l int) bool {
		for k := 0; k < l; k++ {
			if m.Batch[i+k].Column != m.Batch[j+k].Column {
				return false
			}
		}
		return true
	}
	r1 := runEnd(0)
	if r1 == n {
		if n > 255 {
			return 0, 0, 0, false
		}
		return 0, n, 0, true
	}
	if m.Batch[r1].RequestID != m.Batch[0].RequestID+1 {
		return 0, 0, 0, false
	}
	r2 := runEnd(r1)
	len1, len2 := r1, r2-r1
	if r2 == n {
		// Either the first run is full (phase 0) and the second a prefix of
		// it, or the second is full and the first a suffix of it.
		if len1 <= 255 && len2 <= len1 && segEq(r1, 0, len2) {
			return 0, len1, 0, true
		}
		if len2 <= 255 && len1 < len2 && segEq(0, r2-len1, len1) {
			return r1, len2, len2 - len1, true
		}
		return 0, 0, 0, false
	}
	// Three or more runs: the second (a middle run) defines the cycle; the
	// first must be its suffix, the last its prefix, middles identical, ids
	// consecutive throughout.
	cycle := len2
	if cycle > 255 || len1 > cycle || !segEq(0, r1+cycle-len1, len1) {
		return 0, 0, 0, false
	}
	prev := m.Batch[r1].RequestID
	for start := r2; start < n; {
		end := runEnd(start)
		if m.Batch[start].RequestID != prev+1 {
			return 0, 0, 0, false
		}
		prev = m.Batch[start].RequestID
		runLen := end - start
		if end < n && runLen != cycle {
			return 0, 0, 0, false
		}
		if runLen > cycle || !segEq(start, r1, runLen) {
			return 0, 0, 0, false
		}
		start = end
	}
	return r1, cycle, cycle - len1, true
}

// UnmarshalWire decodes a fixed-layout payload in place, implementing
// wire.Unmarshaler. The Batch slice's backing array is reused when large
// enough, so a long-lived decoder allocates only on growth.
func (m *MeasurementBatch) UnmarshalWire(payload []byte) error {
	r := &reader{b: payload}
	if err := r.header(TypeMeasurementBatch, "measurement batch"); err != nil {
		return err
	}
	layout := r.u8()
	agentLen := int(r.u8())
	agent := r.take(agentLen)
	if r.bad {
		return fmt.Errorf("%w: truncated measurement batch prefix", ErrMalformed)
	}
	switch layout {
	case layoutGrid:
		base := int64(r.u64())
		ncols := int(r.u8())
		cols := r.take(ncols)
		phase := int(r.u8())
		count := int(r.u32())
		if r.bad || ncols == 0 || phase >= ncols || count > r.remaining()/8 {
			return fmt.Errorf("%w: bad grid measurement batch", ErrMalformed)
		}
		m.Batch = resizeMeasurements(m.Batch, count)
		for i := 0; i < count; i++ {
			k := phase + i
			m.Batch[i] = Measurement{
				RequestID: base + int64(k/ncols),
				Column:    int32(cols[k%ncols]),
				Value:     r.f64(),
			}
		}
	case layoutNarrow:
		base := int64(r.u64())
		count := int(r.u32())
		if r.bad || count > r.remaining()/11 {
			return fmt.Errorf("%w: bad narrow measurement batch", ErrMalformed)
		}
		m.Batch = resizeMeasurements(m.Batch, count)
		for i := 0; i < count; i++ {
			d := r.u16()
			c := r.u8()
			m.Batch[i] = Measurement{RequestID: base + int64(d), Column: int32(c), Value: r.f64()}
		}
	case layoutWide:
		count := int(r.u32())
		if r.bad || count > r.remaining()/20 {
			return fmt.Errorf("%w: bad wide measurement batch", ErrMalformed)
		}
		m.Batch = resizeMeasurements(m.Batch, count)
		for i := 0; i < count; i++ {
			m.Batch[i] = Measurement{
				RequestID: int64(r.u64()),
				Column:    int32(r.u32()),
				Value:     r.f64(),
			}
		}
	default:
		return fmt.Errorf("%w: unknown measurement layout 0x%02x", ErrMalformed, layout)
	}
	if err := r.done("measurement batch"); err != nil {
		return err
	}
	internString(&m.AgentID, agent)
	return nil
}

// resizeMeasurements mirrors resizeF64 for the batch slice, keeping a nil
// slice nil for a zero count so a fresh decode deep-equals a gob decode.
func resizeMeasurements(dst []Measurement, n int) []Measurement {
	if n == 0 {
		if dst == nil {
			return nil
		}
		return dst[:0]
	}
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]Measurement, n)
}
