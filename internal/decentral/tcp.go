package decentral

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"kertbn/internal/faulty"
	"kertbn/internal/journal"
	"kertbn/internal/obs"
	"kertbn/internal/wire"
	"kertbn/internal/wire/binfmt"
)

// Relay metrics: frames validated and echoed, plus the store-and-forward
// ledger (journaled frames shipped and at-least-once duplicates the relay
// suppressed).
var (
	decFramesBinary = obs.C("decentral.tcp.binary_frames")
	decJournaledTx  = obs.C("decentral.tcp.journaled_frames")
	decDups         = obs.C("decentral.tcp.dup_suppressed")
	// Telemetry pass-through: snapshots the relay handed to its sink,
	// snapshots dropped for want of one, and snapshots shipped through the
	// relay from this side.
	decTelRelayed = obs.C("decentral.tcp.telemetry_relayed")
	decTelIgnored = obs.C("decentral.tcp.telemetry_ignored")
	decTelTx      = obs.C("decentral.tcp.telemetry_tx")
)

// countingWriter counts the bytes actually written to the wire, so the
// decentral.ship_bytes counter reflects real framed parcel sizes on the TCP
// transport (vs. the 8·len payload accounting of InProcShipper).
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// relayMsg is the relay's frame decoder: it validates the payload as
// one of the binary message kinds the fabric relays (row segments and CPD
// deltas, bare or inside a journaled envelope) and keeps the raw bytes so
// the echo needs no re-encode.
type relayMsg struct {
	seg       binfmt.RowSegment
	delta     binfmt.CPDDelta
	tel       binfmt.TelemetrySnapshot
	isTel     bool
	env       binfmt.Journaled
	journaled bool
	origin    uint64
	seq       uint64
	raw       []byte
}

// UnmarshalWire implements wire.Unmarshaler by sniffing the message type
// and decoding with the matching scratch struct — a full validation pass,
// so a corrupt-but-CRC-valid payload is rejected before it gets echoed.
func (m *relayMsg) UnmarshalWire(payload []byte) error {
	t, ok := binfmt.MsgType(payload)
	if !ok {
		return fmt.Errorf("%w: unknown payload on relay", binfmt.ErrMalformed)
	}
	m.journaled, m.isTel = false, false
	body := payload
	if t == binfmt.TypeJournaled {
		if err := m.env.UnmarshalWire(payload); err != nil {
			return err
		}
		m.journaled, m.origin, m.seq = true, m.env.Origin, m.env.Seq
		body = m.env.Inner
		t, _ = binfmt.MsgType(body)
	}
	switch t {
	case binfmt.TypeRowSegment:
		if err := m.seg.UnmarshalWire(body); err != nil {
			return err
		}
	case binfmt.TypeCPDDelta:
		if err := m.delta.UnmarshalWire(body); err != nil {
			return err
		}
	case binfmt.TypeTelemetrySnapshot:
		if err := m.tel.UnmarshalWire(body); err != nil {
			return err
		}
		m.isTel = true
	default:
		return fmt.Errorf("%w: message type 0x%02x not relayed", binfmt.ErrMalformed, t)
	}
	m.raw = payload
	return nil
}

// FabricOptions tunes the TCP fabric's robustness envelope. The zero value
// gets production-shaped defaults; tests shrink the timeouts.
type FabricOptions struct {
	// DialTimeout bounds connection establishment (default 2s).
	DialTimeout time.Duration
	// IOTimeout is the per-message read/write deadline on the shipping side
	// (default 5s) — the fix for the stalled-peer-hangs-the-learner-forever
	// failure mode.
	IOTimeout time.Duration
	// IdleTimeout is the relay-side per-parcel read deadline (default 30s);
	// an idle or stalled shipper costs one relay goroutine for at most this
	// long.
	IdleTimeout time.Duration
	// Injector, when non-nil, injects deterministic faults into every
	// shipping connection, keyed by (from, to, attempt) — the chaos hook.
	Injector *faulty.Injector
	// Journal enables durable shipping of row segments (full columns and
	// delta-sync segments alike): each outgoing segment is appended before
	// its first attempt and released only by the relay's validated echo,
	// which doubles as the ack. Segments whose shipment fails replay ahead
	// of later shipments, so a relay outage costs latency, not segments.
	// The caller keeps ownership of the journal.
	Journal *journal.Journal
	// Origin identifies this fabric's journal in envelopes (default 1).
	Origin uint64
	// Dedup is the relay-side at-least-once suppression window. Nil gets a
	// fresh private window; share one to keep suppression across restarts.
	Dedup *journal.Dedup
	// TelemetrySink, when non-nil, receives every TelemetrySnapshot frame
	// the relay validates — fabric nodes double as telemetry forwarding
	// hops, so a learner colocated with the fleet aggregator can absorb
	// peer snapshots without a second listener. The snapshot's backing
	// arrays are reused for the next frame; the sink must finish with it
	// before returning. Without a sink, telemetry frames are still echoed
	// (the shipper's ack) but counted as ignored.
	TelemetrySink func(*binfmt.TelemetrySnapshot)
}

func (o FabricOptions) withDefaults() FabricOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.IOTimeout <= 0 {
		o.IOTimeout = 5 * time.Second
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 30 * time.Second
	}
	if o.Origin == 0 {
		o.Origin = 1
	}
	if o.Dedup == nil {
		o.Dedup = journal.NewDedup()
	}
	return o
}

// TCPFabric is a Shipper that routes every column through a real TCP
// socket as a framed row segment, so decentralized-learning measurements
// include genuine serialization and network-stack cost. A single relay
// listener accepts a connection per shipment, reads the parcel and echoes
// it back — the in-one-process equivalent of agent-to-agent transfer.
//
// Every read and write carries a deadline, and the fabric implements
// AttemptShipper so LearnRobust's retries redraw the fault plan (and the
// connection) per attempt.
type TCPFabric struct {
	listener net.Listener
	opts     FabricOptions
	wg       sync.WaitGroup
	mu       sync.Mutex
	closed   bool
	conns    map[net.Conn]struct{}
	trace    obs.TraceContext

	// Durable-shipping state (opts.Journal != nil). jmu serializes journaled
	// shipments: replay order must match journal order, and the pendEdge
	// bookkeeping (edge -> pending journal seq, so a caller's retry re-ships
	// its existing record instead of appending a duplicate) is shared.
	jmu      sync.Mutex
	pendEdge map[uint64]uint64
	jplBuf   []byte
	jenvBuf  []byte
}

// SetTrace attaches a trace context to the fabric: subsequent shipments
// (including delta syncs routed through it) emit per-attempt
// "decentral.ship" spans under that context and put flagged frames on the
// wire, so CPD shipping shows up inside the rebuild's trace. The zero
// context turns tracing back off.
func (f *TCPFabric) SetTrace(tc obs.TraceContext) {
	f.mu.Lock()
	f.trace = tc
	f.mu.Unlock()
}

func (f *TCPFabric) traceCtx() obs.TraceContext {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.trace
}

// NewTCPFabric starts the relay on 127.0.0.1 (ephemeral port) with default
// robustness options.
func NewTCPFabric() (*TCPFabric, error) {
	return NewTCPFabricOpts(FabricOptions{})
}

// NewTCPFabricOpts starts the relay with explicit options.
func NewTCPFabricOpts(opts FabricOptions) (*TCPFabric, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("decentral: listen: %w", err)
	}
	f := &TCPFabric{listener: l, opts: opts.withDefaults(), conns: map[net.Conn]struct{}{}}
	if f.opts.Journal != nil {
		f.pendEdge = map[uint64]uint64{}
	}
	f.wg.Add(1)
	go f.acceptLoop()
	return f, nil
}

// track registers a live relay connection; it returns false (and closes the
// conn) when the fabric is already shutting down.
func (f *TCPFabric) track(c net.Conn) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		c.Close()
		return false
	}
	f.conns[c] = struct{}{}
	return true
}

func (f *TCPFabric) untrack(c net.Conn) {
	f.mu.Lock()
	delete(f.conns, c)
	f.mu.Unlock()
}

// Addr returns the relay address.
func (f *TCPFabric) Addr() string { return f.listener.Addr().String() }

func (f *TCPFabric) acceptLoop() {
	defer f.wg.Done()
	for {
		conn, err := f.listener.Accept()
		if err != nil {
			return
		}
		f.wg.Add(1)
		go func(c net.Conn) {
			defer f.wg.Done()
			if !f.track(c) {
				return
			}
			defer f.untrack(c)
			defer c.Close()
			// relayMsg is reused across frames so a stream decodes with
			// steady-state allocation only for the raw echo copy.
			var bin relayMsg
			for {
				if err := c.SetReadDeadline(time.Now().Add(f.opts.IdleTimeout)); err != nil {
					// A conn that rejects deadlines can pin this goroutine
					// forever; treat it as dead.
					return
				}
				fctx, err := wire.Decode(c, 0, &bin)
				if err != nil {
					if errors.Is(err, wire.ErrChecksum) || errors.Is(err, binfmt.ErrMalformed) {
						// The frame was fully consumed; the stream is still
						// aligned. Count it and keep serving — the shipper's
						// echo read will time out and retry.
						decBadFrames.Inc()
						continue
					}
					return
				}
				if fctx.Sampled() {
					// Record the relay-side wire hop: sender clock to now,
					// nested under the shipping attempt's span.
					hop := obs.StartSpanCtxAt("decentral.relay_hop",
						obs.TraceContext{TraceID: fctx.TraceID, SpanID: fctx.SpanID},
						time.Unix(0, fctx.SendUnixNS))
					hop.SetAttr("attempt", strconv.Itoa(int(fctx.Attempt)))
					hop.EndAt(time.Now())
				}
				if err := c.SetWriteDeadline(time.Now().Add(f.opts.IdleTimeout)); err != nil {
					return
				}
				// Echo the validated payload re-framed, without a re-encode.
				decFramesBinary.Inc()
				fresh := true
				if bin.journaled && !f.opts.Dedup.Fresh(bin.origin, bin.seq) {
					// At-least-once replay of a record already relayed. The
					// echo is idempotent, so still answer it — the shipper
					// clearly never saw the previous echo.
					decDups.Inc()
					fresh = false
				}
				if bin.isTel && fresh {
					decTelRelayed.Inc()
					if f.opts.TelemetrySink != nil {
						f.opts.TelemetrySink(&bin.tel)
					} else {
						decTelIgnored.Inc()
					}
				}
				if _, err := wire.WriteBinaryPayload(c, bin.raw, wire.TraceContext{}); err != nil {
					return
				}
			}
		}(conn)
	}
}

// edgeKey identifies the (from, to) shipping edge for fault plans and
// jitter streams: each edge is owned by exactly one learner, so per-edge
// attempt numbering is deterministic regardless of scheduling.
func edgeKey(from, to int) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}

// Ship implements Shipper: one attempt with full deadlines (attempt 0 of
// ShipAttempt). Retrying callers use ShipAttempt so the fault schedule and
// jitter redraw per attempt.
func (f *TCPFabric) Ship(from, to int, col []float64) ([]float64, error) {
	return f.ShipAttempt(from, to, 0, col)
}

// dial opens one shipping connection to the relay, routed through the
// injector when configured; key and attempt pick the fault plan so chaos
// runs replay.
func (f *TCPFabric) dial(key uint64, attempt int) (net.Conn, error) {
	if in := f.opts.Injector; in != nil {
		return in.Dial("tcp", f.Addr(), key, uint64(attempt), f.opts.DialTimeout)
	}
	return net.DialTimeout("tcp", f.Addr(), f.opts.DialTimeout)
}

// Durable reports whether this fabric journals outgoing segments — an
// exhausted retry budget then leaves the segment pending instead of lost,
// which is what the dropped-segment accounting keys on.
func (f *TCPFabric) Durable() bool { return f.opts.Journal != nil }

// ShipAttempt implements AttemptShipper: the column makes a real round trip
// through the relay socket, with dial/read/write deadlines and optional
// deterministic fault injection keyed by (from, to, attempt). With a
// journal configured the segment is persisted first and replayed (together
// with any earlier stranded segments) until the relay's echo acks it.
func (f *TCPFabric) ShipAttempt(from, to, attempt int, col []float64) ([]float64, error) {
	if f.opts.Journal != nil {
		return f.shipAttemptDurable(from, to, attempt, col)
	}
	start := time.Now()
	// Each attempt gets its own span, so retried shipments appear as
	// sibling "decentral.ship" spans tagged with their attempt number.
	var sp *obs.Span
	var fctx wire.TraceContext
	if tc := f.traceCtx(); tc.Sampled() {
		sp = obs.StartSpanCtx("decentral.ship", tc)
		sp.SetAttr("edge", fmt.Sprintf("%d->%d", from, to))
		sp.SetAttr("attempt", strconv.Itoa(attempt))
		defer sp.End()
		sctx := sp.Context()
		fctx = wire.TraceContext{TraceID: sctx.TraceID, SpanID: sctx.SpanID,
			SendUnixNS: start.UnixNano(), Attempt: uint8(min(attempt, 255))}
	}
	conn, err := f.dial(edgeKey(from, to), attempt)
	if err != nil {
		return nil, fmt.Errorf("decentral: dial relay: %w", err)
	}
	defer conn.Close()
	cw := &countingWriter{w: conn}
	if err := conn.SetWriteDeadline(time.Now().Add(f.opts.IOTimeout)); err != nil {
		// A deadline the conn rejects means an unbounded write; the conn is
		// as dead as one that fails the write, so fail the attempt.
		return nil, fmt.Errorf("decentral: set write deadline: %w", err)
	}
	if _, err := wire.Encode(cw, &binfmt.RowSegment{From: from, To: to, Col: col}, fctx); err != nil {
		return nil, fmt.Errorf("decentral: send segment: %w", err)
	}
	var back binfmt.RowSegment
	if err := conn.SetReadDeadline(time.Now().Add(f.opts.IOTimeout)); err != nil {
		return nil, fmt.Errorf("decentral: set read deadline: %w", err)
	}
	if _, err := wire.Decode(conn, 0, &back); err != nil {
		return nil, fmt.Errorf("decentral: receive segment: %w", err)
	}
	if back.From != from || back.To != to {
		return nil, fmt.Errorf("decentral: relay returned parcel %d->%d, want %d->%d", back.From, back.To, from, to)
	}
	decShips.Inc()
	decShipBytes.Add(cw.n)
	decShipSec.Observe(time.Since(start).Seconds())
	return back.Col, nil
}

// SendTelemetry ships one telemetry snapshot through the relay: the frame
// is written, validated on the far side, handed to the relay's
// TelemetrySink, and its echo read back as the ack. It implements the
// telemetry Sender contract, letting a fabric node forward fleet snapshots
// over the same socket plane it ships columns on.
func (f *TCPFabric) SendTelemetry(snap *binfmt.TelemetrySnapshot) error {
	conn, err := net.DialTimeout("tcp", f.Addr(), f.opts.DialTimeout)
	if err != nil {
		return fmt.Errorf("decentral: dial relay: %w", err)
	}
	defer conn.Close()
	if err := conn.SetWriteDeadline(time.Now().Add(f.opts.IOTimeout)); err != nil {
		return fmt.Errorf("decentral: set write deadline: %w", err)
	}
	if _, err := wire.Encode(conn, snap, wire.TraceContext{}); err != nil {
		return fmt.Errorf("decentral: send telemetry: %w", err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(f.opts.IOTimeout)); err != nil {
		return fmt.Errorf("decentral: set read deadline: %w", err)
	}
	var echo binfmt.TelemetrySnapshot
	if _, err := wire.Decode(conn, 0, &echo); err != nil {
		return fmt.Errorf("decentral: telemetry echo: %w", err)
	}
	if echo.Source != snap.Source || echo.Epoch != snap.Epoch || echo.Seq != snap.Seq {
		return fmt.Errorf("decentral: telemetry echo mismatch: got (%s,%d,%d), want (%s,%d,%d)",
			echo.Source, echo.Epoch, echo.Seq, snap.Source, snap.Epoch, snap.Seq)
	}
	decTelTx.Inc()
	return nil
}

// shipAttemptDurable is the journaled shipment path. The segment is
// appended to the journal (unless this caller's earlier attempt already
// did — pendEdge remembers), then every pending record is replayed in
// sequence order over one connection: write the envelope, read the relay's
// echo, validate it, and ack. A failure leaves the unacked suffix pending
// for the next shipment; the relay's dedup window absorbs any record whose
// echo (not delivery) was what got lost.
//
// CPD deltas deliberately stay off the journal: they are refit every round
// from data the journal already protects, so re-delivery has nothing to add
// (RobustOptions.ShipCPDs failures keep the locally fitted CPD).
func (f *TCPFabric) shipAttemptDurable(from, to, attempt int, col []float64) ([]float64, error) {
	f.jmu.Lock()
	defer f.jmu.Unlock()
	j := f.opts.Journal
	key := edgeKey(from, to)
	mySeq, pending := f.pendEdge[key]
	if !pending {
		seg := binfmt.RowSegment{From: from, To: to, Col: col}
		payload, err := seg.AppendWire(f.jplBuf[:0])
		f.jplBuf = payload
		if err != nil {
			return nil, fmt.Errorf("decentral: encode for journal: %w", err)
		}
		mySeq, err = j.Append(payload)
		if err != nil {
			return nil, fmt.Errorf("decentral: journal append: %w", err)
		}
		f.pendEdge[key] = mySeq
	}
	start := time.Now()
	conn, err := f.dial(key, attempt)
	if err != nil {
		return nil, fmt.Errorf("decentral: dial relay: %w", err)
	}
	defer conn.Close()
	cw := &countingWriter{w: conn}
	var out []float64
	err = j.Replay(func(seq uint64, payload []byte, attempts int) error {
		env := binfmt.Journaled{Origin: f.opts.Origin, Seq: seq, Inner: payload}
		buf, err := wire.AppendBinaryFrame(f.jenvBuf[:0], &env, wire.TraceContext{})
		f.jenvBuf = buf
		if err != nil {
			return err
		}
		if err := conn.SetWriteDeadline(time.Now().Add(f.opts.IOTimeout)); err != nil {
			return fmt.Errorf("set write deadline: %w", err)
		}
		if _, err := cw.Write(buf); err != nil {
			return err
		}
		decJournaledTx.Inc()
		if err := conn.SetReadDeadline(time.Now().Add(f.opts.IOTimeout)); err != nil {
			return fmt.Errorf("set read deadline: %w", err)
		}
		var echo binfmt.Journaled
		if _, err := wire.Decode(conn, 0, &echo); err != nil {
			return err
		}
		if echo.Origin != f.opts.Origin || echo.Seq != seq {
			return fmt.Errorf("relay echoed wrong journal record (origin %d seq %d, want %d/%d)", echo.Origin, echo.Seq, f.opts.Origin, seq)
		}
		// The validated echo is the ack: the relay held this record.
		j.Ack(seq)
		var s binfmt.RowSegment
		if err := s.UnmarshalWire(echo.Inner); err != nil {
			return err
		}
		delete(f.pendEdge, edgeKey(s.From, s.To))
		if seq == mySeq {
			if s.From != from || s.To != to {
				return fmt.Errorf("relay returned parcel %d->%d, want %d->%d", s.From, s.To, from, to)
			}
			out = append([]float64(nil), s.Col...)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decentral: durable ship: %w", err)
	}
	if out == nil {
		return nil, fmt.Errorf("decentral: journal record %d for edge %d->%d was not replayed", mySeq, from, to)
	}
	decShips.Inc()
	decShipBytes.Add(cw.n)
	decShipSec.Observe(time.Since(start).Seconds())
	return out, nil
}

// ShipCPD implements CPDShipper over the relay socket: the fitted delta
// rides a frame to the relay and its echo is decoded back, so the measured
// path includes true serialization and network cost.
func (f *TCPFabric) ShipCPD(from, attempt int, delta *binfmt.CPDDelta) (*binfmt.CPDDelta, error) {
	start := time.Now()
	var fctx wire.TraceContext
	if tc := f.traceCtx(); tc.Sampled() {
		sp := obs.StartSpanCtx("decentral.ship_cpd", tc)
		sp.SetAttr("node", strconv.Itoa(delta.Node))
		sp.SetAttr("attempt", strconv.Itoa(attempt))
		defer sp.End()
		sctx := sp.Context()
		fctx = wire.TraceContext{TraceID: sctx.TraceID, SpanID: sctx.SpanID,
			SendUnixNS: start.UnixNano(), Attempt: uint8(min(attempt, 255))}
	}
	// The management server plays the "to" side; key fault plans on the
	// from->server edge (server id -1) so CPD ships draw independent
	// schedules from column ships.
	conn, err := f.dial(edgeKey(from, -1), attempt)
	if err != nil {
		return nil, fmt.Errorf("decentral: dial relay: %w", err)
	}
	defer conn.Close()
	cw := &countingWriter{w: conn}
	if err := conn.SetWriteDeadline(time.Now().Add(f.opts.IOTimeout)); err != nil {
		return nil, fmt.Errorf("decentral: set write deadline: %w", err)
	}
	if _, err := wire.Encode(cw, delta, fctx); err != nil {
		return nil, fmt.Errorf("decentral: send CPD delta: %w", err)
	}
	var back binfmt.CPDDelta
	if err := conn.SetReadDeadline(time.Now().Add(f.opts.IOTimeout)); err != nil {
		return nil, fmt.Errorf("decentral: set read deadline: %w", err)
	}
	if _, err := wire.Decode(conn, 0, &back); err != nil {
		return nil, fmt.Errorf("decentral: receive CPD delta: %w", err)
	}
	if back.Node != delta.Node {
		return nil, fmt.Errorf("decentral: relay returned wrong CPD echo for node %d", delta.Node)
	}
	decCPDShipBytes.Add(cw.n)
	decShipSec.Observe(time.Since(start).Seconds())
	return &back, nil
}

// Close shuts the relay down, severing any live connections so shutdown
// never waits out an idle deadline.
func (f *TCPFabric) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	for c := range f.conns {
		c.Close()
	}
	f.mu.Unlock()
	err := f.listener.Close()
	f.wg.Wait()
	return err
}
