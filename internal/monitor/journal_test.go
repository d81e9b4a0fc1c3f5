package monitor

import (
	"errors"
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"kertbn/internal/faulty"
	"kertbn/internal/journal"
	"kertbn/internal/obs"
	"kertbn/internal/wire"
	"kertbn/internal/wire/binfmt"
)

func openTestJournal(t *testing.T, name string) *journal.Journal {
	t.Helper()
	j, err := journal.Open(journal.Options{Path: filepath.Join(t.TempDir(), name)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// uniqueValues asserts every delivered single-column row carries a distinct
// value — the exactly-once check: at-least-once replay plus server dedup must
// never surface the same measurement twice.
func uniqueValues(t *testing.T, rc *rowCollector) {
	t.Helper()
	rc.mu.Lock()
	defer rc.mu.Unlock()
	seen := map[float64]bool{}
	for _, row := range rc.rows {
		if seen[row[0]] {
			t.Fatalf("value %v delivered twice (dedup failed)", row[0])
		}
		seen[row[0]] = true
	}
}

// TestDurableSenderSurvivesServerRestart is the headline outage scenario:
// the management server dies mid-stream, the agent keeps reporting (Send
// returns nil — the rows are in the journal), the server restarts on the
// same address with a shared dedup window, and a flush delivers every held
// row exactly once.
func TestDurableSenderSurvivesServerRestart(t *testing.T) {
	rc := &rowCollector{}
	inner, _ := NewServer(1, rc.sink)
	dedup := journal.NewDedup()
	srv, err := ListenTCPOpts("127.0.0.1:0", inner, ServerOptions{Dedup: dedup})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	j := openTestJournal(t, "restart.wal")
	sender, err := DialTCPOpts(addr, SenderOptions{
		Journal: j, AgentKey: 7, Seed: 7,
		IOTimeout: 300 * time.Millisecond, AckTimeout: 300 * time.Millisecond,
		Backoff: tinyBackoff,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	send := func(id int64) {
		t.Helper()
		if err := sender.Send(Report{AgentID: "a", Batch: []Measurement{{RequestID: id, Column: 0, Value: float64(id)}}}); err != nil {
			t.Fatalf("durable send %d: %v", id, err)
		}
	}
	for id := int64(1); id <= 5; id++ {
		send(id)
	}
	waitFor(t, "pre-outage rows", func() bool { return rc.count() == 5 })
	// One frame stays in flight: the newest record's ack is read by the next
	// Send or FlushJournal.
	if j.Pending() > 1 {
		t.Fatalf("journal holds %d records while the server is healthy, want at most the one in flight", j.Pending())
	}
	if err := sender.FlushJournal(); err != nil {
		t.Fatal(err)
	}
	if j.Pending() != 0 {
		t.Fatalf("journal holds %d records after FlushJournal on a healthy server", j.Pending())
	}

	// Outage: the server goes away mid-stream. Durable sends still succeed.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for id := int64(6); id <= 10; id++ {
		send(id)
	}
	if j.Pending() == 0 {
		t.Fatal("outage-era rows must be parked in the journal")
	}

	// Recovery: same address, same inner server, same dedup window.
	srv2, err := ListenTCPOpts(addr, inner, ServerOptions{Dedup: dedup})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	waitFor(t, "journal drain after restart", func() bool {
		_ = sender.FlushJournal()
		return j.Pending() == 0 && rc.count() >= 10
	})
	if rc.count() != 10 {
		t.Fatalf("delivered %d rows, want exactly 10", rc.count())
	}
	uniqueValues(t, rc)
}

// TestDurableSenderCrashRecovery kills the agent process (sender closed,
// journal closed) with unacked rows on disk, then reopens the journal in a
// fresh sender: the recovered records replay and land exactly once.
func TestDurableSenderCrashRecovery(t *testing.T) {
	rc := &rowCollector{}
	inner, _ := NewServer(1, rc.sink)
	dedup := journal.NewDedup()
	srv, err := ListenTCPOpts("127.0.0.1:0", inner, ServerOptions{Dedup: dedup})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "crash.wal")
	j, err := journal.Open(journal.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	sender, err := DialTCPOpts(srv.Addr(), SenderOptions{
		Journal: j, AgentKey: 9, Seed: 9,
		IOTimeout: 300 * time.Millisecond, AckTimeout: 300 * time.Millisecond,
		Backoff: tinyBackoff,
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id <= 3; id++ {
		if err := sender.Send(Report{AgentID: "a", Batch: []Measurement{{RequestID: id, Column: 0, Value: float64(id)}}}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "pre-crash rows", func() bool { return rc.count() == 3 })
	// Drain the frame Send left in flight, so the file is empty before the
	// outage.
	if err := sender.FlushJournal(); err != nil {
		t.Fatal(err)
	}

	// Server dies; two more rows park in the journal; then the agent "crashes"
	// before any flush lands.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for id := int64(4); id <= 5; id++ {
		if err := sender.Send(Report{AgentID: "a", Batch: []Measurement{{RequestID: id, Column: 0, Value: float64(id)}}}); err != nil {
			t.Fatal(err)
		}
	}
	sender.Close()
	j.Close()

	// Restart: reopen the journal from disk. Acks are not persisted, so the
	// recovered set is exactly the unacked tail (acked records were truncated
	// away when the journal fully drained earlier).
	j2, err := journal.Open(journal.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Recovered() != 2 {
		t.Fatalf("recovered %d records, want 2", j2.Recovered())
	}
	srv2, err := ListenTCPOpts("127.0.0.1:0", inner, ServerOptions{Dedup: dedup})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	sender2, err := DialTCPOpts(srv2.Addr(), SenderOptions{
		Journal: j2, AgentKey: 9, Seed: 9,
		IOTimeout: 300 * time.Millisecond, AckTimeout: 300 * time.Millisecond,
		Backoff: tinyBackoff,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sender2.Close()
	waitFor(t, "recovered-journal drain", func() bool {
		_ = sender2.FlushJournal()
		return j2.Pending() == 0 && rc.count() >= 5
	})
	if rc.count() != 5 {
		t.Fatalf("delivered %d rows, want exactly 5", rc.count())
	}
	uniqueValues(t, rc)
}

// TestDurableSenderChaosExactlyOnce drives the durable path through a seeded
// truncation storm: connections die mid-frame and mid-ack, forcing replays
// whose duplicates the server must suppress. The invariant is exactly-once
// delivery of every row once a clean drain runs — crash-mid-replay in chaos
// form, fully deterministic under the injector seed.
func TestDurableSenderChaosExactlyOnce(t *testing.T) {
	const rows = 30
	rc := &rowCollector{}
	inner, _ := NewServer(1, rc.sink)
	dedup := journal.NewDedup()
	srv, err := ListenTCPOpts("127.0.0.1:0", inner, ServerOptions{Dedup: dedup, IdleTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	inj, err := faulty.NewInjector(faulty.Config{Seed: 11, Truncate: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	j := openTestJournal(t, "chaos.wal")
	chaos, err := DialTCPOpts(srv.Addr(), SenderOptions{
		Journal: j, AgentKey: 11, Seed: 11, Injector: inj,
		IOTimeout: 200 * time.Millisecond, AckTimeout: 200 * time.Millisecond,
		Backoff: tinyBackoff,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer chaos.Close()
	for id := int64(1); id <= rows; id++ {
		if err := chaos.Send(Report{AgentID: "a", Batch: []Measurement{{RequestID: id, Column: 0, Value: float64(id)}}}); err != nil {
			t.Fatalf("durable send %d under chaos: %v", id, err)
		}
	}

	// Clean drain through a second sender sharing the journal and origin.
	drain, err := DialTCPOpts(srv.Addr(), SenderOptions{
		Journal: j, AgentKey: 11, Seed: 12,
		IOTimeout: 300 * time.Millisecond, AckTimeout: 300 * time.Millisecond,
		Backoff: tinyBackoff,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer drain.Close()
	waitFor(t, "chaos journal drain", func() bool {
		_ = drain.FlushJournal()
		return j.Pending() == 0 && rc.count() >= rows
	})
	if rc.count() != rows {
		t.Fatalf("delivered %d rows, want exactly %d", rc.count(), rows)
	}
	uniqueValues(t, rc)
}

// TestCloseUnblocksRetryingSend is the regression test for the sender
// holding its mutex across backoff sleeps and re-dials: Close during an
// in-flight retry must return immediately and abort the send, instead of
// waiting out a multi-second retry budget behind the lock.
func TestCloseUnblocksRetryingSend(t *testing.T) {
	rc := &rowCollector{}
	inner, _ := NewServer(1, rc.sink)
	srv, err := ListenTCP("127.0.0.1:0", inner)
	if err != nil {
		t.Fatal(err)
	}
	sender, err := DialTCPOpts(srv.Addr(), SenderOptions{
		DialTimeout: 200 * time.Millisecond, IOTimeout: 200 * time.Millisecond,
		Retries: 1000, Backoff: faulty.Backoff{Base: 300 * time.Millisecond, Max: time.Second},
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()

	// The first send may land in the dead socket's buffer; it is not the one
	// under test. The second send enters the retry loop (refused dials +
	// 300ms backoffs) and would run for minutes without the fix.
	_ = sender.Send(Report{AgentID: "a", Batch: []Measurement{{RequestID: 1, Column: 0, Value: 1}}})
	errCh := make(chan error, 1)
	go func() {
		errCh <- sender.Send(Report{AgentID: "a", Batch: []Measurement{{RequestID: 2, Column: 0, Value: 2}}})
	}()
	time.Sleep(100 * time.Millisecond) // let the send reach its retry loop

	start := time.Now()
	if err := sender.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("Close blocked %v behind an in-flight retry", d)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrSenderClosed) {
			t.Fatalf("aborted send returned %v, want ErrSenderClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("send did not abort after Close")
	}
}

// deadlineErrConn wraps a live conn but fails deadline control, the failure
// mode of satellite 2: a transport whose Set{Read,Write}Deadline errors can
// block I/O forever, so both ends must treat it as dead.
type deadlineErrConn struct {
	net.Conn
	failRead  bool
	failWrite bool
	closed    atomic.Bool
}

func (c *deadlineErrConn) SetReadDeadline(time.Time) error {
	if c.failRead {
		return errors.New("deadline not supported")
	}
	return nil
}

func (c *deadlineErrConn) SetWriteDeadline(time.Time) error {
	if c.failWrite {
		return errors.New("deadline not supported")
	}
	return nil
}

func (c *deadlineErrConn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

// TestSenderDropsConnOnWriteDeadlineError: a SetWriteDeadline failure must
// not be ignored — the sender drops the connection instead of writing
// unbounded, and the send is accounted as a counted drop once the budget
// runs out.
func TestSenderDropsConnOnWriteDeadlineError(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	stub := &deadlineErrConn{Conn: c1, failWrite: true}
	sender := &TCPSender{
		addr: "127.0.0.1:1", // reserved port: any re-dial attempt fails fast
		opts: SenderOptions{DialTimeout: 50 * time.Millisecond, Retries: 0}.withDefaults(),
		conn: stub, closeCh: make(chan struct{}),
	}
	defer sender.Close()

	before := monTCPDropped.Value()
	err := sender.Send(Report{AgentID: "a", Batch: []Measurement{{RequestID: 1, Column: 0, Value: 1}}})
	if err == nil {
		t.Fatal("send over a deadline-refusing conn must fail")
	}
	if !stub.closed.Load() {
		t.Fatal("deadline-refusing conn was not closed")
	}
	sender.mu.Lock()
	live := sender.conn
	sender.mu.Unlock()
	if live == stub {
		t.Fatal("deadline-refusing conn still installed as current")
	}
	if monTCPDropped.Value() != before+1 {
		t.Fatal("exhausted send did not advance monitor.tcp.dropped_reports")
	}
}

// TestServerDropsConnOnReadDeadlineError: the serving goroutine must bail
// out when it cannot arm its idle deadline, rather than risking a read that
// never returns.
func TestServerDropsConnOnReadDeadlineError(t *testing.T) {
	rc := &rowCollector{}
	inner, _ := NewServer(1, rc.sink)
	s := &TCPServer{inner: inner, opts: ServerOptions{}.withDefaults(), conns: map[net.Conn]struct{}{}}
	c1, c2 := net.Pipe()
	defer c2.Close()
	stub := &deadlineErrConn{Conn: c1, failRead: true}
	s.wg.Add(1)
	done := make(chan struct{})
	go func() {
		s.serve(stub)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("serve loop kept a deadline-refusing conn alive")
	}
	if !stub.closed.Load() {
		t.Fatal("deadline-refusing conn was not closed")
	}
}

// TestDroppedReportAccounting: exhausting the retry budget without a journal
// is never silent — the drop counter advances once per lost report.
func TestDroppedReportAccounting(t *testing.T) {
	rc := &rowCollector{}
	inner, _ := NewServer(1, rc.sink)
	srv, err := ListenTCP("127.0.0.1:0", inner)
	if err != nil {
		t.Fatal(err)
	}
	sender, err := DialTCPOpts(srv.Addr(), SenderOptions{
		DialTimeout: 150 * time.Millisecond, IOTimeout: 150 * time.Millisecond,
		Retries: 1, Backoff: tinyBackoff, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	srv.Close()

	before := monTCPDropped.Value()
	var failed int64
	for i := int64(0); i < 10 && failed == 0; i++ {
		if sender.Send(Report{AgentID: "a", Batch: []Measurement{{RequestID: i, Column: 0, Value: 1}}}) != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("sends against a dead server must eventually error")
	}
	if got := monTCPDropped.Value() - before; got != failed {
		t.Fatalf("dropped_reports advanced by %d, want %d", got, failed)
	}
}

// TestDurableSenderCorruptionExactlyOnce: a bit flip in flight makes the
// server skip a journaled frame without acking it. With a frame in flight
// behind it, the next frame must not be delivered past the gap — its
// cumulative ack would release the skipped record unsent. Every row must
// still land exactly once after a clean drain.
func TestDurableSenderCorruptionExactlyOnce(t *testing.T) {
	const rows = 30
	rc := &rowCollector{}
	inner, _ := NewServer(1, rc.sink)
	dedup := journal.NewDedup()
	srv, err := ListenTCPOpts("127.0.0.1:0", inner, ServerOptions{Dedup: dedup, IdleTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	inj, err := faulty.NewInjector(faulty.Config{Seed: 13, Corrupt: 1})
	if err != nil {
		t.Fatal(err)
	}
	j := openTestJournal(t, "corrupt.wal")
	chaos, err := DialTCPOpts(srv.Addr(), SenderOptions{
		Journal: j, AgentKey: 13, Seed: 13, Injector: inj,
		IOTimeout: 200 * time.Millisecond, AckTimeout: 200 * time.Millisecond,
		Backoff: tinyBackoff,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer chaos.Close()
	before := monTCPBadFrames.Value()
	for id := int64(1); id <= rows; id++ {
		if err := chaos.Send(Report{AgentID: "a", Batch: []Measurement{{RequestID: id, Column: 0, Value: float64(id)}}}); err != nil {
			t.Fatalf("durable send %d under corruption: %v", id, err)
		}
	}
	if monTCPBadFrames.Value() == before {
		t.Fatal("fault schedule corrupted no frame; the test exercises nothing")
	}
	drain, err := DialTCPOpts(srv.Addr(), SenderOptions{
		Journal: j, AgentKey: 13, Seed: 14,
		IOTimeout: 300 * time.Millisecond, AckTimeout: 300 * time.Millisecond,
		Backoff: tinyBackoff,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer drain.Close()
	waitFor(t, "corruption journal drain", func() bool {
		_ = drain.FlushJournal()
		return j.Pending() == 0
	})
	if rc.count() != rows {
		t.Fatalf("delivered %d rows, want exactly %d", rc.count(), rows)
	}
	uniqueValues(t, rc)
}

// withholdingServer accepts one agent connection, reads its journaled
// frames and acks only when told to: it pins where a durable Send waits.
type withholdingServer struct {
	l    net.Listener
	conn chan net.Conn
	seqs chan uint64
}

func listenWithholding(t *testing.T) *withholdingServer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// seqs holds more frames than a test sends, so the reader never blocks
	// on it; the reader exits when the test closes the connection.
	ws := &withholdingServer{l: l, conn: make(chan net.Conn, 1), seqs: make(chan uint64, 16)}
	t.Cleanup(func() { l.Close() })
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		ws.conn <- c
		var msg srvMsg
		for {
			if _, err := wire.Decode(c, 0, &msg); err != nil {
				return
			}
			ws.seqs <- msg.seq
		}
	}()
	return ws
}

// writeAck sends one cumulative ack frame on c.
func writeAck(t *testing.T, c net.Conn, origin, seq uint64) {
	t.Helper()
	buf, err := wire.AppendBinaryFrame(nil, &binfmt.Ack{Origin: origin, Seq: seq}, wire.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
}

// TestDurableSendKeepsOneFrameInFlight pins the pipelined contract: the
// first Send returns with its record written but unacked, and the second
// blocks until the first record's ack arrives — or, against a server that
// never acks, until AckTimeout, still returning nil (the record is durable).
func TestDurableSendKeepsOneFrameInFlight(t *testing.T) {
	ws := listenWithholding(t)
	j := openTestJournal(t, "inflight.wal")
	const ackTimeout = 300 * time.Millisecond
	sender, err := DialTCPOpts(ws.l.Addr().String(), SenderOptions{
		Journal: j, AgentKey: 5, Seed: 5,
		IOTimeout: time.Second, AckTimeout: ackTimeout, Backoff: tinyBackoff,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	c := <-ws.conn
	defer c.Close()
	send := func(id int64) error {
		return sender.Send(Report{AgentID: "a", Batch: []Measurement{{RequestID: id, Column: 0, Value: float64(id)}}})
	}
	nextFrame := func() uint64 {
		t.Helper()
		select {
		case seq := <-ws.seqs:
			return seq
		case <-time.After(2 * time.Second):
			t.Fatal("no frame reached the server")
			return 0
		}
	}

	if err := send(1); err != nil {
		t.Fatal(err)
	}
	if got := nextFrame(); got != 1 {
		t.Fatalf("first frame carried seq %d, want 1", got)
	}
	if j.Pending() != 1 {
		t.Fatalf("pending = %d after the first Send, want its record in flight", j.Pending())
	}

	done := make(chan error, 1)
	go func() { done <- send(2) }()
	if got := nextFrame(); got != 2 {
		t.Fatalf("second frame carried seq %d, want 2", got)
	}
	select {
	case err := <-done:
		t.Fatalf("second Send returned (%v) before the first record was acked", err)
	case <-time.After(100 * time.Millisecond):
	}
	writeAck(t, c, 5, 1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("second Send did not return after the first ack")
	}
	if j.AckedSeq() != 1 || j.Pending() != 1 {
		t.Fatalf("acked=%d pending=%d, want record 1 released and record 2 in flight", j.AckedSeq(), j.Pending())
	}

	// Record 2 is never acked: the third Send waits out AckTimeout, drops
	// the connection and still reports success — the record is on disk.
	start := time.Now()
	if err := send(3); err != nil {
		t.Fatalf("durable Send must succeed without an ack: %v", err)
	}
	if d := time.Since(start); d < ackTimeout {
		t.Fatalf("third Send returned after %v, before AckTimeout %v", d, ackTimeout)
	}
	if j.Pending() != 2 {
		t.Fatalf("pending = %d, want records 2 and 3 parked", j.Pending())
	}
}

// TestDurableSenderReplaysInFlightFrameOnce: a connection that dies with a
// frame in flight (delivered, ack never sent) replays exactly that record
// once on the next connection — one duplicate suppressed, one
// journal.replayed_records, one delivered row.
func TestDurableSenderReplaysInFlightFrameOnce(t *testing.T) {
	rc := &rowCollector{}
	entered, release := make(chan struct{}, 1), make(chan struct{})
	var held atomic.Bool
	inner, _ := NewServer(1, func(row []float64) {
		if held.CompareAndSwap(false, true) {
			// Hold the first delivery, and with it the server's ack.
			entered <- struct{}{}
			<-release
		}
		rc.sink(row)
	})
	dedup := journal.NewDedup()
	srv, err := ListenTCPOpts("127.0.0.1:0", inner, ServerOptions{Dedup: dedup})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	j := openTestJournal(t, "replay-once.wal")
	sender, err := DialTCPOpts(addr, SenderOptions{
		Journal: j, AgentKey: 17, Seed: 17,
		IOTimeout: 300 * time.Millisecond, AckTimeout: 300 * time.Millisecond,
		Backoff: tinyBackoff,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	send := func(id int64) {
		t.Helper()
		if err := sender.Send(Report{AgentID: "a", Batch: []Measurement{{RequestID: id, Column: 0, Value: float64(id)}}}); err != nil {
			t.Fatal(err)
		}
	}

	send(1)
	<-entered
	// Sever the connection while record 1 is being delivered: the server
	// closes its conns first, so the ack that follows the release fails.
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	waitFor(t, "server shutdown to sever its conns", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.closed
	})
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	srv2, err := ListenTCPOpts(addr, inner, ServerOptions{Dedup: dedup})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	replays, dups := obs.C("journal.replayed_records").Value(), monTCPDups.Value()
	// The old connection holds no ack: the flush fails and drops it.
	if err := sender.FlushJournal(); err == nil {
		t.Fatal("flush over the severed connection must fail")
	}
	// The fresh connection replays record 1 once, then carries record 2.
	send(2)
	if err := sender.FlushJournal(); err != nil {
		t.Fatal(err)
	}
	if j.Pending() != 0 {
		t.Fatalf("pending = %d after the drain", j.Pending())
	}
	if got := obs.C("journal.replayed_records").Value() - replays; got != 1 {
		t.Fatalf("journal.replayed_records advanced by %d, want 1", got)
	}
	if got := monTCPDups.Value() - dups; got != 1 {
		t.Fatalf("monitor.tcp.dup_suppressed advanced by %d, want 1", got)
	}
	if rc.count() != 2 {
		t.Fatalf("delivered %d rows, want exactly 2", rc.count())
	}
	uniqueValues(t, rc)
}
