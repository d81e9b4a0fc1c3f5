package monitor

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"sync"
	"time"

	"kertbn/internal/faulty"
	"kertbn/internal/journal"
	"kertbn/internal/obs"
	"kertbn/internal/stats"
	"kertbn/internal/wire"
	"kertbn/internal/wire/binfmt"
)

// TCP-transport metrics: accepted agent connections, bytes received by the
// management server, plus the robustness envelope — send retries, re-dials
// after a broken connection, corrupted frames skipped by the receiver, and
// the durability ledger (reports dropped after an exhausted retry budget,
// journaled frames, acks, and at-least-once duplicates suppressed).
var (
	monTCPConns     = obs.C("monitor.tcp.connections")
	monTCPBytesRx   = obs.C("monitor.tcp.bytes_rx")
	monTCPRetries   = obs.C("monitor.tcp.retries")
	monTCPRedials   = obs.C("monitor.tcp.redials")
	monTCPBadFrames = obs.C("monitor.tcp.bad_frames")
	monTCPBinaryRx  = obs.C("monitor.tcp.binary_frames_rx")
	monTCPDropped   = obs.C("monitor.tcp.dropped_reports")
	monTCPJournaled = obs.C("monitor.tcp.journaled_frames")
	monTCPAcksRx    = obs.C("monitor.tcp.acks_rx")
	monTCPDups      = obs.C("monitor.tcp.dup_suppressed")
	monTCPTelRx     = obs.C("monitor.tcp.telemetry_rx")
	monTCPTelIgn    = obs.C("monitor.tcp.telemetry_ignored")
	monTCPTelTx     = obs.C("monitor.tcp.telemetry_tx")
	monTCPTelDrop   = obs.C("monitor.tcp.telemetry_dropped")
)

var (
	// ErrSenderClosed is returned by Send/FlushJournal on a closed sender,
	// and by sends aborted because Close was called mid-retry.
	ErrSenderClosed = errors.New("monitor: sender closed")
	// ErrUnrepresentable is returned by Send, before anything is written or
	// journaled, for a report the fixed wire layout cannot carry: an agent
	// id over 255 bytes or a column outside int32.
	ErrUnrepresentable = errors.New("monitor: report not representable in the wire layout")
)

// countingReader counts bytes read from the wrapped reader into a counter.
type countingReader struct {
	r io.Reader
	c *obs.Counter
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.c.Add(int64(n))
	return n, err
}

// ServerOptions tunes the receive path. The zero value gets defaults.
type ServerOptions struct {
	// IdleTimeout is the per-report read deadline (default 30s): a stalled
	// or dead agent costs one serving goroutine for at most this long
	// instead of forever.
	IdleTimeout time.Duration
	// Dedup is the at-least-once suppression window for journaled senders.
	// Nil gets a fresh private window; pass a shared one to keep suppression
	// working across server restarts (the outage-replay scenario).
	Dedup *journal.Dedup
	// Telemetry, when non-nil, receives every delivered TelemetrySnapshot
	// (plain or journaled — duplicates of journaled replays are suppressed
	// by Dedup first). The snapshot's backing arrays are reused for the next
	// frame, so the sink must finish with it before returning; the fleet
	// aggregator applies it synchronously. With no sink, telemetry frames
	// are counted (monitor.tcp.telemetry_ignored) and dropped.
	Telemetry func(*binfmt.TelemetrySnapshot)
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 30 * time.Second
	}
	if o.Dedup == nil {
		o.Dedup = journal.NewDedup()
	}
	return o
}

// TCPServer exposes a management Server over TCP: agents dial in and stream
// framed measurement batches (see internal/wire). It is the distributed
// stand-in for the paper's OGSA-based reporting path. Corrupted frames are
// counted and skipped; the stream survives them. Journaled senders get
// cumulative acks back on the same connection and their replayed duplicates
// are suppressed by the (shared or private) dedup window.
type TCPServer struct {
	inner    *Server
	listener net.Listener
	opts     ServerOptions
	wg       sync.WaitGroup
	mu       sync.Mutex
	closed   bool
	conns    map[net.Conn]struct{}
}

// ListenTCP starts accepting agent connections on addr (use "127.0.0.1:0"
// for an ephemeral test port) with default options.
func ListenTCP(addr string, inner *Server) (*TCPServer, error) {
	return ListenTCPOpts(addr, inner, ServerOptions{})
}

// ListenTCPOpts is ListenTCP with explicit robustness options.
func ListenTCPOpts(addr string, inner *Server, opts ServerOptions) (*TCPServer, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("monitor: listen: %w", err)
	}
	s := &TCPServer{inner: inner, listener: l, opts: opts.withDefaults(), conns: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// track registers a live connection; it returns false (and closes the conn)
// when the server is already shutting down.
func (s *TCPServer) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		c.Close()
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *TCPServer) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Addr returns the listening address.
func (s *TCPServer) Addr() string { return s.listener.Addr().String() }

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.serve(conn)
	}
}

// srvMsg is the per-connection decode scratch: a plain measurement batch or
// telemetry snapshot, either bare or inside a journaled envelope.
// UnmarshalWire reuses the batch's and snapshot's backing arrays, so a
// steady stream decodes without per-frame allocations.
type srvMsg struct {
	mb        binfmt.MeasurementBatch
	tel       binfmt.TelemetrySnapshot
	isTel     bool
	journaled bool
	origin    uint64
	seq       uint64
}

func (m *srvMsg) UnmarshalWire(p []byte) error {
	typ, ok := binfmt.MsgType(p)
	if !ok {
		return fmt.Errorf("%w: unsniffable payload on monitor path", binfmt.ErrMalformed)
	}
	m.journaled = false
	body := p
	if typ == binfmt.TypeJournaled {
		var env binfmt.Journaled
		if err := env.UnmarshalWire(p); err != nil {
			return err
		}
		m.journaled, m.origin, m.seq = true, env.Origin, env.Seq
		body = env.Inner
		typ, _ = binfmt.MsgType(body)
	}
	switch typ {
	case binfmt.TypeMeasurementBatch:
		m.isTel = false
		return m.mb.UnmarshalWire(body)
	case binfmt.TypeTelemetrySnapshot:
		m.isTel = true
		return m.tel.UnmarshalWire(body)
	default:
		return fmt.Errorf("%w: message type 0x%02x on monitor path", binfmt.ErrMalformed, typ)
	}
}

func (s *TCPServer) serve(conn net.Conn) {
	defer s.wg.Done()
	if !s.track(conn) {
		return
	}
	defer s.untrack(conn)
	defer conn.Close()
	monTCPConns.Inc()
	cr := &countingReader{r: conn, c: monTCPBytesRx}
	var msg srvMsg
	var ackBuf []byte
	// corrupted is set once a checksum failure has skipped a frame on this
	// connection. That frame may have been a journaled record, never acked;
	// a later journaled frame's cumulative ack would release it unsent.
	corrupted := false
	for {
		if err := conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout)); err != nil {
			// A conn that rejects deadlines can block this goroutine
			// forever; treat it as dead.
			return
		}
		fctx, err := wire.Decode(cr, 0, &msg)
		if err != nil {
			if errors.Is(err, wire.ErrChecksum) {
				// Frame fully consumed; stream still aligned. Count the
				// corruption and keep receiving — the agent will retry.
				monTCPBadFrames.Inc()
				corrupted = true
				continue
			}
			if errors.Is(err, binfmt.ErrMalformed) {
				// The frame passed its CRC but the payload does not parse:
				// a writer bug or version skew, not wire corruption. The
				// stream is still aligned; skip the frame.
				monTCPBadFrames.Inc()
				continue
			}
			return
		}
		monTCPBinaryRx.Inc()
		if msg.journaled && corrupted {
			// Neither deliver nor ack past the gap: dropping the connection
			// makes the sender replay from its ack watermark, which still
			// covers the skipped record.
			return
		}
		deliver := true
		if msg.journaled && !s.opts.Dedup.Fresh(msg.origin, msg.seq) {
			// At-least-once replay of a record we already accepted.
			// Suppress the delivery but still ack below — the sender
			// clearly never saw the previous ack.
			monTCPDups.Inc()
			deliver = false
		}
		var r Report
		if deliver && msg.isTel {
			// Telemetry snapshots go to the fleet sink, not the inner
			// measurement server. The sink call happens before the ack
			// below, so a crash in between re-delivers and the
			// aggregator's own (source, epoch, seq) dedup absorbs it.
			monTCPTelRx.Inc()
			if s.opts.Telemetry != nil {
				s.opts.Telemetry(&msg.tel)
			} else {
				monTCPTelIgn.Inc()
			}
			deliver = false
		} else if deliver {
			// Convert to the server's Report form. The batch is freshly
			// allocated because inner senders (collectors, forwarders)
			// may retain it past this call.
			r.AgentID = msg.mb.AgentID
			r.Batch = make([]Measurement, len(msg.mb.Batch))
			for i := range msg.mb.Batch {
				m := &msg.mb.Batch[i]
				r.Batch[i] = Measurement{RequestID: m.RequestID, Column: int(m.Column), Value: m.Value}
			}
		}
		if deliver && fctx.Sampled() {
			// Reconstruct the wire hop as a span running from the sender's
			// send timestamp to now — network latency plus any injected
			// delay — parented under the agent's flush span. Each delivered
			// retry becomes a sibling hop tagged with its attempt number.
			hop := obs.StartSpanCtxAt("monitor.wire_hop",
				obs.TraceContext{TraceID: fctx.TraceID, SpanID: fctx.SpanID},
				time.Unix(0, fctx.SendUnixNS))
			hop.SetAttr("attempt", strconv.Itoa(int(fctx.Attempt)))
			hop.SetAttr("agent", r.AgentID)
			hop.EndAt(time.Now())
			// Reattach so the ingest span nests under this hop.
			r.Trace = hop.Context()
		}
		if deliver {
			_ = s.inner.Send(r)
		}
		if msg.journaled {
			// Cumulative ack, sent only after the inner server accepted the
			// report: a crash between delivery and ack re-delivers, and the
			// dedup window absorbs it. Ack failures mean a dead conn.
			ack := binfmt.Ack{Origin: msg.origin, Seq: s.opts.Dedup.Watermark(msg.origin)}
			if err := conn.SetWriteDeadline(time.Now().Add(s.opts.IdleTimeout)); err != nil {
				return
			}
			buf, err := wire.AppendBinaryFrame(ackBuf[:0], &ack, wire.TraceContext{})
			ackBuf = buf
			if err != nil {
				return
			}
			if _, err := conn.Write(buf); err != nil {
				return
			}
		}
	}
}

// Close stops accepting, severs live agent connections, and waits for the
// serving goroutines to finish.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.listener.Close()
	s.wg.Wait()
	return err
}

// SenderOptions tunes the agent-side robustness envelope. The zero value
// gets defaults.
type SenderOptions struct {
	// DialTimeout bounds connection establishment (default 2s).
	DialTimeout time.Duration
	// IOTimeout is the per-report write deadline (default 5s).
	IOTimeout time.Duration
	// Retries is the per-report retry budget after the first attempt
	// (default 2). Each retry re-dials if the connection broke.
	Retries int
	// Backoff paces retries (zero value: 10ms base, 500ms cap).
	Backoff faulty.Backoff
	// Seed roots the deterministic retry jitter; combined with AgentKey so
	// co-hosted agents draw independent streams.
	Seed uint64
	// AgentKey identifies this agent in fault plans and jitter streams, and
	// doubles as the journal origin in durable mode.
	AgentKey uint64
	// Injector, when non-nil, wraps every dialed connection with
	// deterministic faults keyed by (AgentKey, send sequence, attempt).
	Injector *faulty.Injector
	// Journal switches the sender to durable store-and-forward mode: every
	// report is appended to the journal first (Send then returns nil — an
	// unreachable server costs latency, not data), shipped inside a
	// binfmt.Journaled envelope, and released only by the server's
	// cumulative ack. One frame stays in flight per connection: Send
	// returns once its own record is written and every earlier one is
	// acked, so the server ingests a batch while the agent prepares the
	// next. Records the live connection has not carried replay
	// automatically on the next Send or FlushJournal after a reconnect; the
	// server dedups on (AgentKey, seq). Call FlushJournal before Close to
	// leave nothing pending. The caller keeps ownership of the journal
	// (Close it separately after the sender).
	Journal *journal.Journal
	// AckTimeout bounds the wait for the server's cumulative ack in durable
	// mode (default IOTimeout).
	AckTimeout time.Duration
}

func (o SenderOptions) withDefaults() SenderOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.IOTimeout <= 0 {
		o.IOTimeout = 5 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.AckTimeout <= 0 {
		o.AckTimeout = o.IOTimeout
	}
	return o
}

// TCPSender is an agent-side Sender that ships framed reports to a
// TCPServer over a persistent connection, with per-send write deadlines and
// retry + re-dial when the connection breaks — the agent-side half of the
// failure model. Without a journal, a lost report is retried and a dead
// manager eventually surfaces as an error (and a counted, journaled drop)
// after the budget; with SenderOptions.Journal the report is already
// persisted when Send returns and will be replayed until acked.
type TCPSender struct {
	addr string
	opts SenderOptions

	// sendMu serializes Send and FlushJournal: frames must not interleave
	// on the connection (a frame is written in more than one syscall).
	sendMu sync.Mutex
	// mu guards the fields below. It is never held across dials, writes, or
	// backoff sleeps, so Close is always prompt.
	mu     sync.Mutex
	conn   net.Conn
	closed bool
	seq    uint64 // sends attempted, for fault-plan keying

	// closeCh aborts in-flight backoff sleeps when Close is called.
	closeCh chan struct{}

	// Per-sender scratch, guarded by sendMu: the frame buffer, the journal
	// payload buffer, and the wire-form batch are reused across sends, so
	// the steady-state path allocates nothing per report.
	encBuf []byte
	plBuf  []byte
	mb     binfmt.MeasurementBatch

	// Durable-mode write cursor, guarded by sendMu: the highest journal
	// sequence written on wconn. A connection other than wconn has carried
	// nothing yet, so the cursor restarts from zero on it. acks buffers
	// wconn's ack stream.
	wconn   net.Conn
	sentSeq uint64
	acks    *bufio.Reader
}

// fillBatch converts r into the sender's scratch wire-form batch, or
// returns ErrUnrepresentable when the fixed layout cannot carry it.
func (t *TCPSender) fillBatch(r *Report) error {
	if len(r.AgentID) > 255 {
		return fmt.Errorf("%w: agent id is %d bytes (max 255)", ErrUnrepresentable, len(r.AgentID))
	}
	t.mb.AgentID = r.AgentID
	if cap(t.mb.Batch) >= len(r.Batch) {
		t.mb.Batch = t.mb.Batch[:len(r.Batch)]
	} else {
		t.mb.Batch = make([]binfmt.Measurement, len(r.Batch))
	}
	for i := range r.Batch {
		m := &r.Batch[i]
		if m.Column < math.MinInt32 || m.Column > math.MaxInt32 {
			return fmt.Errorf("%w: column %d outside int32", ErrUnrepresentable, m.Column)
		}
		t.mb.Batch[i] = binfmt.Measurement{RequestID: m.RequestID, Column: int32(m.Column), Value: m.Value}
	}
	return nil
}

// DialTCP connects a sender to the management server with default options
// (2 retries, 10ms..500ms backoff).
func DialTCP(addr string) (*TCPSender, error) {
	return DialTCPOpts(addr, SenderOptions{Retries: 2})
}

// DialTCPOpts is DialTCP with explicit robustness options. The initial dial
// is performed eagerly so configuration errors surface immediately.
func DialTCPOpts(addr string, opts SenderOptions) (*TCPSender, error) {
	t := &TCPSender{addr: addr, opts: opts.withDefaults(), closeCh: make(chan struct{})}
	conn, err := t.dial(0, 0)
	if err != nil {
		return nil, fmt.Errorf("monitor: dial: %w", err)
	}
	t.conn = conn
	return t, nil
}

// dial opens one connection, routed through the injector when configured.
// seq/attempt key the fault plan so chaos runs replay.
func (t *TCPSender) dial(seq uint64, attempt int) (net.Conn, error) {
	if in := t.opts.Injector; in != nil {
		return in.Dial("tcp", t.addr, t.opts.AgentKey^seq, uint64(attempt), t.opts.DialTimeout)
	}
	return net.DialTimeout("tcp", t.addr, t.opts.DialTimeout)
}

// ensureConn returns the live connection, dialing one (outside the lock)
// when necessary.
func (t *TCPSender) ensureConn(seq uint64, attempt int) (net.Conn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrSenderClosed
	}
	if c := t.conn; c != nil {
		t.mu.Unlock()
		return c, nil
	}
	t.mu.Unlock()
	conn, err := t.dial(seq, attempt)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return nil, ErrSenderClosed
	}
	monTCPRedials.Inc()
	t.conn = conn
	t.mu.Unlock()
	return conn, nil
}

// dropConn closes c and forgets it if it is still the current connection.
func (t *TCPSender) dropConn(c net.Conn) {
	c.Close()
	t.mu.Lock()
	if t.conn == c {
		t.conn = nil
	}
	t.mu.Unlock()
}

// Send implements Sender.
//
// A report the wire layout cannot carry fails with ErrUnrepresentable in
// both modes, before anything is written or journaled. Without a journal:
// frame the report, write it under a deadline, and on failure re-dial and
// retry up to the budget with seeded backoff jitter; an exhausted budget is
// counted as a dropped report and journaled as data loss. With a journal:
// append first, then flush best-effort — Send returns nil once the report
// is durable, whatever the server's state. On a healthy connection it
// returns once the report's frame is written and every earlier record is
// acked; its own ack is read by the next Send or FlushJournal.
func (t *TCPSender) Send(r Report) error {
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrSenderClosed
	}
	seq := t.seq
	t.seq++
	t.mu.Unlock()
	if err := t.fillBatch(&r); err != nil {
		return err
	}
	if t.opts.Journal != nil {
		return t.sendDurable(&r, seq)
	}
	var lastErr error
	for attempt := 0; attempt <= t.opts.Retries; attempt++ {
		if attempt > 0 {
			monTCPRetries.Inc()
			jrng := stats.NewRNG(t.opts.Seed).Split(t.opts.AgentKey).Split(seq).Split(uint64(attempt))
			// The backoff wait holds no locks and aborts on Close, so
			// shutdown never waits out a retry budget.
			timer := time.NewTimer(t.opts.Backoff.Delay(attempt-1, jrng))
			select {
			case <-timer.C:
			case <-t.closeCh:
				timer.Stop()
				return ErrSenderClosed
			}
		}
		conn, err := t.ensureConn(seq, attempt)
		if err != nil {
			if errors.Is(err, ErrSenderClosed) {
				return err
			}
			lastErr = err
			continue
		}
		if err := conn.SetWriteDeadline(time.Now().Add(t.opts.IOTimeout)); err != nil {
			// A conn that rejects deadlines would write unbounded; it is as
			// dead as one that fails the write itself.
			t.dropConn(conn)
			lastErr = err
			continue
		}
		// Sampled reports ship the traced frame layout, stamping each
		// attempt with its own send timestamp and attempt number so the
		// receiver can reconstruct per-attempt wire-hop spans.
		var fctx wire.TraceContext
		if r.Trace.Sampled() {
			fctx = wire.TraceContext{
				TraceID:    r.Trace.TraceID,
				SpanID:     r.Trace.SpanID,
				SendUnixNS: time.Now().UnixNano(),
				Attempt:    uint8(min(attempt, 255)),
			}
		}
		buf, err := wire.AppendBinaryFrame(t.encBuf[:0], &t.mb, fctx)
		t.encBuf = buf
		if err != nil {
			// Only a batch over the frame cap gets here; retrying cannot
			// shrink it.
			return fmt.Errorf("monitor: encode report: %w", err)
		}
		if _, err := conn.Write(buf); err != nil {
			// The frame may have landed partially: the connection is not
			// trustworthy anymore. Drop it and re-dial on the next attempt.
			t.dropConn(conn)
			lastErr = err
			continue
		}
		return nil
	}
	// Retry budget exhausted without a journal: the report is gone. Never
	// silently — the counter and the data-loss event are what the outage
	// experiment (and production dashboards) watch.
	monTCPDropped.Inc()
	obs.J().Record(obs.Event{
		Type:   obs.EventDataLoss,
		Rows:   1,
		Detail: fmt.Sprintf("monitor: report from %s dropped after %d attempts (%d measurements): %v", r.AgentID, t.opts.Retries+1, len(r.Batch), lastErr),
	})
	return fmt.Errorf("monitor: send after %d attempts: %w", t.opts.Retries+1, lastErr)
}

// SendTelemetry ships one metric snapshot to the server's fleet sink over
// the same connection (and journal, when configured) as reports. In
// durable mode the snapshot is appended to the journal first, shipped with
// the same one-frame-in-flight rule as Send, and replayed until acked, so
// telemetry survives a server outage exactly like measurement data; without
// a journal it retries on the report budget and an exhausted budget counts
// a monitor.tcp.telemetry_dropped (telemetry loss is monitored, but it
// never fails rows).
func (t *TCPSender) SendTelemetry(snap *binfmt.TelemetrySnapshot) error {
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrSenderClosed
	}
	seq := t.seq
	t.seq++
	t.mu.Unlock()
	if t.opts.Journal != nil {
		payload, err := snap.AppendWire(t.plBuf[:0])
		t.plBuf = payload
		if err != nil {
			return fmt.Errorf("monitor: encode telemetry for journal: %w", err)
		}
		jseq, err := t.opts.Journal.Append(payload)
		if err != nil {
			return fmt.Errorf("monitor: journal append: %w", err)
		}
		monTCPJournaled.Inc()
		monTCPTelTx.Inc()
		// Best-effort delivery with one frame in flight, as for reports;
		// the record is safe and replays until acked.
		_ = t.flushJournal(seq, jseq-1, 0, obs.TraceContext{})
		return nil
	}
	var lastErr error
	for attempt := 0; attempt <= t.opts.Retries; attempt++ {
		if attempt > 0 {
			monTCPRetries.Inc()
			jrng := stats.NewRNG(t.opts.Seed).Split(t.opts.AgentKey).Split(seq).Split(uint64(attempt))
			timer := time.NewTimer(t.opts.Backoff.Delay(attempt-1, jrng))
			select {
			case <-timer.C:
			case <-t.closeCh:
				timer.Stop()
				return ErrSenderClosed
			}
		}
		conn, err := t.ensureConn(seq, attempt)
		if err != nil {
			if errors.Is(err, ErrSenderClosed) {
				return err
			}
			lastErr = err
			continue
		}
		if err := conn.SetWriteDeadline(time.Now().Add(t.opts.IOTimeout)); err != nil {
			t.dropConn(conn)
			lastErr = err
			continue
		}
		buf, err := wire.AppendBinaryFrame(t.encBuf[:0], snap, wire.TraceContext{})
		t.encBuf = buf
		if err != nil {
			return fmt.Errorf("monitor: encode telemetry: %w", err)
		}
		if _, err := conn.Write(buf); err != nil {
			t.dropConn(conn)
			lastErr = err
			continue
		}
		monTCPTelTx.Inc()
		return nil
	}
	monTCPTelDrop.Inc()
	return fmt.Errorf("monitor: telemetry send after %d attempts: %w", t.opts.Retries+1, lastErr)
}

// sendDurable is the journaled Send path: persist t.mb (filled by Send),
// then flush best-effort.
func (t *TCPSender) sendDurable(r *Report, seq uint64) error {
	payload, err := t.mb.AppendWire(t.plBuf[:0])
	t.plBuf = payload
	if err != nil {
		return fmt.Errorf("monitor: encode for journal: %w", err)
	}
	jseq, err := t.opts.Journal.Append(payload)
	if err != nil {
		// Backpressure (PolicyBlock timeout) or a dead journal: the caller
		// must know its data was NOT accepted.
		return fmt.Errorf("monitor: journal append: %w", err)
	}
	monTCPJournaled.Inc()
	// Best-effort delivery. An error here means the server is unreachable;
	// the record is safe and will replay on a later Send or FlushJournal.
	_ = t.flushJournal(seq, jseq-1, jseq, r.Trace)
	return nil
}

// flushJournal writes every pending journal record the current connection
// has not carried yet, in sequence order inside Journaled envelopes, then
// reads cumulative acks inline until the journal's watermark covers ackTo.
// Send passes the record before its own, leaving exactly one frame in
// flight; FlushJournal passes the newest. traceSeq names the one record (if
// any) that should carry the live report's trace context. Callers hold
// sendMu.
func (t *TCPSender) flushJournal(dialSeq, ackTo, traceSeq uint64, trace obs.TraceContext) error {
	j := t.opts.Journal
	if j.Pending() == 0 {
		return nil
	}
	conn, err := t.ensureConn(dialSeq, 0)
	if err != nil {
		return err
	}
	if conn != t.wconn {
		// A fresh connection: replay everything above the ack watermark.
		t.wconn, t.sentSeq, t.acks = conn, 0, bufio.NewReaderSize(conn, 512)
	}
	err = j.ReplayAfter(t.sentSeq, func(seq uint64, payload []byte, attempts int) error {
		env := binfmt.Journaled{Origin: t.opts.AgentKey, Seq: seq, Inner: payload}
		var fctx wire.TraceContext
		if seq == traceSeq && trace.Sampled() {
			fctx = wire.TraceContext{
				TraceID:    trace.TraceID,
				SpanID:     trace.SpanID,
				SendUnixNS: time.Now().UnixNano(),
				Attempt:    uint8(min(attempts, 255)),
			}
		}
		if err := conn.SetWriteDeadline(time.Now().Add(t.opts.IOTimeout)); err != nil {
			return err
		}
		buf, err := wire.AppendBinaryFrame(t.encBuf[:0], &env, fctx)
		t.encBuf = buf
		if err != nil {
			return err
		}
		if _, err := conn.Write(buf); err != nil {
			return err
		}
		t.sentSeq = seq
		return nil
	})
	if err != nil {
		t.dropConn(conn)
		return err
	}
	// The server acks every journaled frame it reads, in order, each ack
	// carrying its cumulative watermark; acks this wait does not need stay
	// unread for a later one. Any failure means re-delivery on the next
	// connection — at-least-once, with the server's dedup window absorbing
	// the overlap.
	for j.AckedSeq() < ackTo {
		if err := conn.SetReadDeadline(time.Now().Add(t.opts.AckTimeout)); err != nil {
			t.dropConn(conn)
			return err
		}
		var ack binfmt.Ack
		if _, err := wire.Decode(t.acks, 0, &ack); err != nil {
			t.dropConn(conn)
			return err
		}
		if ack.Origin != t.opts.AgentKey {
			t.dropConn(conn)
			return fmt.Errorf("monitor: ack for origin %d on origin-%d stream", ack.Origin, t.opts.AgentKey)
		}
		monTCPAcksRx.Inc()
		j.Ack(ack.Seq)
	}
	return nil
}

// FlushJournal delivers every pending journal record now, blocking until
// the server has acked the newest (or an I/O error). Send leaves its own
// record in flight, so callers drain with FlushJournal before Close at
// shutdown, and after an outage ends.
func (t *TCPSender) FlushJournal() error {
	if t.opts.Journal == nil {
		return nil
	}
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrSenderClosed
	}
	seq := t.seq
	t.seq++
	t.mu.Unlock()
	return t.flushJournal(seq, t.opts.Journal.LastSeq(), 0, obs.TraceContext{})
}

// Close shuts the connection and aborts any in-flight retry promptly: the
// backoff wait observes closeCh, blocked writes fail when the conn closes,
// and no lock is held while a peer sleeps.
func (t *TCPSender) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.closeCh)
	c := t.conn
	t.conn = nil
	t.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}
