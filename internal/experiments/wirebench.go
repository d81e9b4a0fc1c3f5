package experiments

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"time"

	"kertbn/internal/core"
	"kertbn/internal/dataset"
	"kertbn/internal/health"
	"kertbn/internal/infer"
	"kertbn/internal/monitor"
	"kertbn/internal/obs"
	"kertbn/internal/simsvc"
	"kertbn/internal/stats"
	"kertbn/internal/wire"
	"kertbn/internal/wire/binfmt"
)

func init() { obs.RegisterPrefix("wire", "internal/experiments") }

// WireBenchConfig parameterizes the wire-codec benchmark (BENCH_wire.json):
// framed bytes on the wire for the three hot message types under gob vs the
// fixed binary layout, plus the measured per-row cost of the allocation-free
// hot paths the codec feeds (frame encode, health scoring, stream ingest,
// compiled-plan LW sampling).
type WireBenchConfig struct {
	Seed uint64
	// BatchSizes sweeps the measurement-batch operating points; GateBatch is
	// the committed-gate point (the agent's default flush size shape).
	BatchSizes []int
	GateBatch  int
	// SegmentSizes sweeps row-segment lengths; GateSegment is the gate point
	// (decentralized learning ships one column value per parcel at minimum).
	SegmentSizes []int
	GateSegment  int
	// NCols is the number of monitored columns the grid batches cycle over.
	NCols int
	// TrainSize sizes the model behind the scoring and sampling arms.
	TrainSize int
	// ScoreRows / IngestRows / EncodeFrames size the per-row cost loops.
	ScoreRows, IngestRows, EncodeFrames int
	// IngestCapacity is the sliding-window capacity of the ingest arm.
	IngestCapacity int
	// NSamples sizes each compiled-plan LW call.
	NSamples int
	// Reps passes are timed and the minimum kept (the noise floor).
	Reps int
}

// DefaultWireBenchConfig matches the committed BENCH_wire.json.
func DefaultWireBenchConfig() WireBenchConfig {
	return WireBenchConfig{
		Seed:           17,
		BatchSizes:     []int{1, 2, 4, 8, 16, 32, 64},
		GateBatch:      8,
		SegmentSizes:   []int{1, 4, 16, 64, 256},
		GateSegment:    1,
		NCols:          4,
		TrainSize:      400,
		ScoreRows:      2000,
		IngestRows:     4000,
		EncodeFrames:   5000,
		IngestCapacity: 512,
		NSamples:       2000,
		Reps:           5,
	}
}

// parcel is the gob comparator's column shipment, the struct the
// decentral transport once shipped by gob. Gob streams carry the concrete
// type and field names, so its name and fields fix the comparator's bytes.
type parcel struct {
	From, To int
	Col      []float64
}

// gridReport builds one agent flush of count measurements cycling over
// ncols columns — the shape every monitoring agent produces — in both its
// production encodings.
func gridReport(rng *stats.RNG, ncols, count int) (*monitor.Report, *binfmt.MeasurementBatch) {
	rep := &monitor.Report{AgentID: "agent-0"}
	bin := &binfmt.MeasurementBatch{AgentID: "agent-0"}
	for k := 0; k < count; k++ {
		id, col, v := int64(1000+k/ncols), k%ncols, rng.Float64()
		rep.Batch = append(rep.Batch, monitor.Measurement{RequestID: id, Column: col, Value: v})
		bin.Batch = append(bin.Batch, binfmt.Measurement{RequestID: id, Column: int32(col), Value: v})
	}
	return rep, bin
}

// writeGobFrame is the offline gob comparator: v gob-encoded as an
// independent stream (so frames decode in isolation, as a gob wire would
// need) behind a 10-byte header, magic(2) | length(4) | crc32(4). It
// writes nothing on an encode error.
func writeGobFrame(w io.Writer, v any) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return err
	}
	hdr := binary.BigEndian.AppendUint16(make([]byte, 0, 10), wire.Magic)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(payload.Len()))
	hdr = binary.BigEndian.AppendUint32(hdr, crc32.ChecksumIEEE(payload.Bytes()))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload.Bytes())
	return err
}

// gobFrameLen and binFrameLen measure full framed wire size: header, CRC
// and payload — the bytes a peer actually receives.
func gobFrameLen(v any) (int, error) {
	var buf bytes.Buffer
	if err := writeGobFrame(&buf, v); err != nil {
		return 0, err
	}
	return buf.Len(), nil
}

func binFrameLen(m wire.Marshaler) (int, error) {
	var buf bytes.Buffer
	if _, err := wire.Encode(&buf, m, wire.TraceContext{}); err != nil {
		return 0, err
	}
	return buf.Len(), nil
}

// minOver runs fn Reps times and returns the minimum of its results — the
// least-interference estimate of a hot-loop cost.
func minOver(reps int, fn func() (float64, error)) (float64, error) {
	best := -1.0
	for r := 0; r < reps; r++ {
		v, err := fn()
		if err != nil {
			return 0, err
		}
		if best < 0 || v < best {
			best = v
		}
	}
	return best, nil
}

// allocsPer measures allocations per iteration of fn over n iterations,
// minimum of three passes (nonzero noise comes from runtime bookkeeping,
// never from an allocation-free loop).
func allocsPer(n int, fn func() error) (float64, error) {
	best := -1.0
	for pass := 0; pass < 3; pass++ {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		runtime.ReadMemStats(&ms1)
		per := float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
		if best < 0 || per < best {
			best = per
		}
	}
	return best, nil
}

// nsPer times n iterations of fn and returns nanoseconds per iteration.
func nsPer(n int, fn func() error) (float64, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}

// sumAccum is the ingest arm's bound accumulator: running per-column sums,
// added on ingest and subtracted on eviction — the allocation-free shape of
// the real sufficient-statistics accumulators.
type sumAccum struct{ sums []float64 }

func (a *sumAccum) AddRow(row []float64) error {
	for j, v := range row {
		a.sums[j] += v
	}
	return nil
}

func (a *sumAccum) RemoveRow(row []float64) error {
	for j, v := range row {
		a.sums[j] -= v
	}
	return nil
}

// WireBench measures the fixed-layout wire codec against a gob comparator
// and the per-row cost of the allocation-free hot paths, producing the
// BENCH_wire.json schema:
//
//	wire.gate.batch_rows / wire.gate.segment_len   gauges: gate operating points
//	wire.bytes.batch.gob / .binary                 gauges: framed bytes, one
//	                                               GateBatch-measurement flush
//	wire.bytes.segment.gob / .binary               gauges: framed bytes, one
//	                                               GateSegment-value parcel
//	wire.bytes.cpd.gob / .binary                   gauges: framed bytes, one
//	                                               linear-Gaussian CPD delta
//	wire.ratio.batch / .segment / .cpd             gauges: gob over binary
//	                                               (the >= 3x acceptance floor)
//	wire.encode_ns_per_row.binary / .gob           gauges: frame-encode cost
//	                                               per measurement
//	wire.encode_allocs_per_frame.binary            gauge: must be 0 (warm buffer)
//	wire.score_ns_per_row / wire.score_allocs_per_row    health scoring hot path
//	wire.ingest_ns_per_row / wire.ingest_allocs_per_row  stream ingest hot path
//	wire.sample_ns_per_sample / wire.sample_allocs_per_sample
//	                                               compiled-plan LW sampling
//	                                               (allocs amortized per sample)
//
// The figure sweeps the byte ratio across batch and segment sizes.
func WireBench(cfg WireBenchConfig) (*FigResult, error) {
	if cfg.GateBatch <= 0 || cfg.GateSegment <= 0 {
		return nil, fmt.Errorf("wirebench: gate operating points must be positive")
	}
	if cfg.NCols <= 0 {
		cfg.NCols = 4
	}
	if cfg.Reps <= 0 {
		cfg.Reps = 3
	}
	root := stats.NewRNG(cfg.Seed)
	obs.G("wire.gate.batch_rows").Set(float64(cfg.GateBatch))
	obs.G("wire.gate.segment_len").Set(float64(cfg.GateSegment))

	// ---- Phase 1: framed bytes per hot type, gob vs binary ----
	ratioAt := func(count int) (gobN, binN int, err error) {
		rep, bin := gridReport(root.Split(1), cfg.NCols, count)
		if gobN, err = gobFrameLen(rep); err != nil {
			return
		}
		binN, err = binFrameLen(bin)
		return
	}
	var batchX, batchY []float64
	var notes []string
	for _, n := range cfg.BatchSizes {
		g, b, err := ratioAt(n)
		if err != nil {
			return nil, fmt.Errorf("wirebench: batch %d: %w", n, err)
		}
		batchX = append(batchX, float64(n))
		batchY = append(batchY, float64(g)/float64(b))
		if n == cfg.GateBatch {
			obs.G("wire.bytes.batch.gob").Set(float64(g))
			obs.G("wire.bytes.batch.binary").Set(float64(b))
			obs.G("wire.ratio.batch").Set(float64(g) / float64(b))
			notes = append(notes, fmt.Sprintf("measurement batch (%d rows): gob %dB -> binary %dB (%.2fx)",
				n, g, b, float64(g)/float64(b)))
		}
	}

	segAt := func(count int) (gobN, binN int, err error) {
		col := make([]float64, count)
		for i := range col {
			col[i] = root.Float64()
		}
		if gobN, err = gobFrameLen(&parcel{From: 2, To: 5, Col: col}); err != nil {
			return
		}
		binN, err = binFrameLen(&binfmt.RowSegment{From: 2, To: 5, Col: col})
		return
	}
	var segX, segY []float64
	for _, n := range cfg.SegmentSizes {
		g, b, err := segAt(n)
		if err != nil {
			return nil, fmt.Errorf("wirebench: segment %d: %w", n, err)
		}
		segX = append(segX, float64(n))
		segY = append(segY, float64(g)/float64(b))
		if n == cfg.GateSegment {
			obs.G("wire.bytes.segment.gob").Set(float64(g))
			obs.G("wire.bytes.segment.binary").Set(float64(b))
			obs.G("wire.ratio.segment").Set(float64(g) / float64(b))
			notes = append(notes, fmt.Sprintf("row segment (%d values): gob %dB -> binary %dB (%.2fx)",
				n, g, b, float64(g)/float64(b)))
		}
	}

	// CPD delta: a linear-Gaussian node with two parents, the common case in
	// the workflow networks. The gob arm encodes the same struct through the
	// gob frame — the counterfactual cost of shipping deltas without a fixed
	// layout.
	delta := &binfmt.CPDDelta{
		Node: 3, Kind: binfmt.KindGaussian,
		Intercept: root.Float64(), Sigma: 0.25, Coef: []float64{root.Float64(), root.Float64()},
	}
	gCPD, err := gobFrameLen(delta)
	if err != nil {
		return nil, err
	}
	bCPD, err := binFrameLen(delta)
	if err != nil {
		return nil, err
	}
	obs.G("wire.bytes.cpd.gob").Set(float64(gCPD))
	obs.G("wire.bytes.cpd.binary").Set(float64(bCPD))
	obs.G("wire.ratio.cpd").Set(float64(gCPD) / float64(bCPD))
	notes = append(notes, fmt.Sprintf("CPD delta (gaussian, 2 coefs): gob %dB -> binary %dB (%.2fx)",
		gCPD, bCPD, float64(gCPD)/float64(bCPD)))

	// ---- Phase 2: frame-encode cost per measurement ----
	encRep, encBin := gridReport(root.Split(2), cfg.NCols, cfg.GateBatch)
	buf := make([]byte, 0, 512)
	buf, err = wire.AppendBinaryFrame(buf[:0], encBin, wire.TraceContext{})
	if err != nil {
		return nil, err
	}
	binEncNs, err := minOver(cfg.Reps, func() (float64, error) {
		return nsPer(cfg.EncodeFrames, func() error {
			buf, err = wire.AppendBinaryFrame(buf[:0], encBin, wire.TraceContext{})
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	var gobBuf bytes.Buffer
	gobEncNs, err := minOver(cfg.Reps, func() (float64, error) {
		return nsPer(cfg.EncodeFrames, func() error {
			gobBuf.Reset()
			return writeGobFrame(&gobBuf, encRep)
		})
	})
	if err != nil {
		return nil, err
	}
	perRow := float64(cfg.GateBatch)
	obs.G("wire.encode_ns_per_row.binary").Set(binEncNs / perRow)
	obs.G("wire.encode_ns_per_row.gob").Set(gobEncNs / perRow)
	encAllocs, err := allocsPer(cfg.EncodeFrames, func() error {
		buf, err = wire.AppendBinaryFrame(buf[:0], encBin, wire.TraceContext{})
		return err
	})
	if err != nil {
		return nil, err
	}
	obs.G("wire.encode_allocs_per_frame.binary").Set(encAllocs)

	// ---- Phase 3: the hot paths the codec feeds ----
	sys := simsvc.EDiaMoNDSystem()
	train, err := sys.GenerateDataset(cfg.TrainSize, root.Split(3))
	if err != nil {
		return nil, err
	}
	model, err := core.BuildKERT(core.KERTConfig{Workflow: sys.Workflow}, train)
	if err != nil {
		return nil, err
	}

	// Health scoring: per-row PIT/log-score cost, allocation-free.
	mon := health.NewMonitor(health.Config{Seed: cfg.Seed, Detector: health.DetectorConfig{Warmup: 1 << 30}})
	if err := mon.SetModel(model); err != nil {
		return nil, err
	}
	scoreRow := append([]float64(nil), train.Rows[0]...)
	observe := func() error {
		_, err := mon.ObserveCtx(scoreRow, obs.TraceContext{})
		return err
	}
	if err := observe(); err != nil {
		return nil, err
	}
	scoreNs, err := minOver(cfg.Reps, func() (float64, error) { return nsPer(cfg.ScoreRows, observe) })
	if err != nil {
		return nil, err
	}
	scoreAllocs, err := allocsPer(cfg.ScoreRows, observe)
	if err != nil {
		return nil, err
	}
	obs.G("wire.score_ns_per_row").Set(scoreNs)
	obs.G("wire.score_allocs_per_row").Set(scoreAllocs)

	// Stream ingest: sliding-window push with a bound accumulator,
	// buffer-recycling steady state.
	stream, err := dataset.NewStream(train.Columns, cfg.IngestCapacity)
	if err != nil {
		return nil, err
	}
	if _, err := stream.Bind(1, func() ([]dataset.Accumulator, error) {
		return []dataset.Accumulator{&sumAccum{sums: make([]float64, len(train.Columns))}}, nil
	}); err != nil {
		return nil, err
	}
	ingestI := 0
	pushRow := func() error {
		row := train.Rows[ingestI%len(train.Rows)]
		ingestI++
		return stream.Push(row)
	}
	for i := 0; i < 2*cfg.IngestCapacity; i++ {
		if err := pushRow(); err != nil {
			return nil, err
		}
	}
	ingestNs, err := minOver(cfg.Reps, func() (float64, error) { return nsPer(cfg.IngestRows, pushRow) })
	if err != nil {
		return nil, err
	}
	ingestAllocs, err := allocsPer(cfg.IngestRows, pushRow)
	if err != nil {
		return nil, err
	}
	obs.G("wire.ingest_ns_per_row").Set(ingestNs)
	obs.G("wire.ingest_allocs_per_row").Set(ingestAllocs)

	// Compiled-plan LW sampling: the flat-array dispatch, cost and
	// allocations amortized per drawn sample (result storage included).
	plan, err := infer.CompileQueryPlan(model.Net, model.DNode, []int{0})
	if err != nil {
		return nil, err
	}
	evidence := infer.ContinuousEvidence{0: stats.Mean(train.Col(0))}
	sampleRng := root.Split(4)
	sample := func() error {
		_, err := plan.Serial(evidence, cfg.NSamples, sampleRng)
		return err
	}
	if err := sample(); err != nil {
		return nil, err
	}
	sampleNs, err := minOver(cfg.Reps, func() (float64, error) {
		ns, err := nsPer(8, sample)
		return ns / float64(cfg.NSamples), err
	})
	if err != nil {
		return nil, err
	}
	sampleAllocs, err := allocsPer(8, sample)
	if err != nil {
		return nil, err
	}
	obs.G("wire.sample_ns_per_sample").Set(sampleNs)
	obs.G("wire.sample_allocs_per_sample").Set(sampleAllocs / float64(cfg.NSamples))

	notes = append(notes,
		fmt.Sprintf("frame encode: binary %.0fns/row (%.3f allocs/frame), gob %.0fns/row", binEncNs/perRow, encAllocs, gobEncNs/perRow),
		fmt.Sprintf("health scoring: %.0fns/row, %.3f allocs/row", scoreNs, scoreAllocs),
		fmt.Sprintf("stream ingest: %.0fns/row, %.3f allocs/row", ingestNs, ingestAllocs),
		fmt.Sprintf("LW sampling: %.0fns/sample, %.4f allocs/sample over %d-sample calls", sampleNs, sampleAllocs/float64(cfg.NSamples), cfg.NSamples),
	)
	return &FigResult{
		ID: "wire",
		Title: fmt.Sprintf("Fixed-layout wire codec vs gob (batch %.1fx, segment %.1fx, cpd %.1fx at the gates)",
			obs.G("wire.ratio.batch").Value(), obs.G("wire.ratio.segment").Value(), obs.G("wire.ratio.cpd").Value()),
		XLabel: "message size (measurements / column values)",
		YLabel: "gob bytes / binary bytes",
		Series: []Series{
			{Name: "batch_ratio", X: batchX, Y: batchY},
			{Name: "segment_ratio", X: segX, Y: segY},
		},
		Notes: notes,
	}, nil
}
