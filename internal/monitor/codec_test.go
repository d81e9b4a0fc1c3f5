package monitor

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"kertbn/internal/faulty"
)

// sendFullRows ships one report per request id carrying every column, so
// each delivered report completes a row regardless of retries or duplicate
// deliveries after a mid-stream connection loss.
func sendFullRows(t *testing.T, s *TCPSender, cols, rows int) {
	t.Helper()
	for req := 0; req < rows; req++ {
		rep := Report{AgentID: "agent-a"}
		for c := 0; c < cols; c++ {
			rep.Batch = append(rep.Batch, Measurement{RequestID: int64(req), Column: c, Value: float64(req*10 + c)})
		}
		if err := s.Send(rep); err != nil {
			t.Fatalf("send %d: %v", req, err)
		}
	}
}

// distinctRows counts distinct leading request ids in the collector.
func distinctRows(rc *rowCollector) int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	seen := map[float64]bool{}
	for _, row := range rc.rows {
		seen[row[0]] = true
	}
	return len(seen)
}

// TestTCPBinaryEndToEnd: a sender on a clean link ships every report as
// one fixed-layout frame and the server assembles the rows with their
// values intact.
func TestTCPBinaryEndToEnd(t *testing.T) {
	const cols, rows = 3, 20
	rc := &rowCollector{}
	inner, err := NewServer(cols, rc.sink)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ListenTCP("127.0.0.1:0", inner)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	binRx := monTCPBinaryRx.Value()
	sender, err := DialTCPOpts(srv.Addr(), SenderOptions{Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	sendFullRows(t, sender, cols, rows)
	waitFor(t, "all rows", func() bool { return distinctRows(rc) == rows })
	if got := monTCPBinaryRx.Value() - binRx; got != int64(rows) {
		t.Fatalf("server counted %d frames, want %d", got, rows)
	}
	// The values survived the layout round trip exactly.
	row := rc.get(0)
	req := int(row[0] / 10)
	for c, v := range row {
		if v != float64(req*10+c) {
			t.Fatalf("row %d col %d = %v", req, c, v)
		}
	}
}

// TestCodecResetsAcrossRedial is the redial regression test: injected
// truncation faults kill the connection mid-stream, the sender re-dials
// and retries, and every row is still delivered. The frame encoding keeps
// no per-connection state, so a fresh connection starts clean.
func TestCodecResetsAcrossRedial(t *testing.T) {
	const cols, rows = 3, 200
	rc := &rowCollector{}
	inner, err := NewServer(cols, rc.sink)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ListenTCP("127.0.0.1:0", inner)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Every connection is truncated somewhere in its first 4 KiB, so a
	// steady stream of ~70-byte frames loses its connection every few
	// dozen sends, mid-stream and deterministically.
	inj, err := faulty.NewInjector(faulty.Config{Seed: 42, Truncate: 1, MaxFaultOffset: 4096})
	if err != nil {
		t.Fatal(err)
	}
	redials, retries := monTCPRedials.Value(), monTCPRetries.Value()
	sender, err := DialTCPOpts(srv.Addr(), SenderOptions{
		Retries:  6,
		Backoff:  faulty.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
		Seed:     7,
		AgentKey: 1,
		Injector: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	sendFullRows(t, sender, cols, rows)

	if got := monTCPRedials.Value() - redials; got == 0 {
		t.Fatal("connection never re-dialed — the test exercised nothing")
	}
	if got := monTCPRetries.Value() - retries; got == 0 {
		t.Fatal("no send was retried — the truncations never hit a write")
	}
	waitFor(t, fmt.Sprintf("%d distinct rows", rows), func() bool { return distinctRows(rc) == rows })
}

// byteCounter is a bare TCP listener that counts every byte any
// connection sends it.
type byteCounter struct {
	l net.Listener
	n chan int64
}

func newByteCounter(t *testing.T) *byteCounter {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bc := &byteCounter{l: l, n: make(chan int64, 1)}
	go func() {
		var total int64
		for {
			c, err := l.Accept()
			if err != nil {
				bc.n <- total
				return
			}
			n, _ := io.Copy(io.Discard, c)
			total += n
			c.Close()
		}
	}()
	return bc
}

// received closes the listener and returns the bytes counted. Call it after
// the sender is closed, so its connection has hit EOF.
func (bc *byteCounter) received() int64 {
	bc.l.Close()
	return <-bc.n
}

// unrepresentable lists reports the fixed layout cannot carry.
func unrepresentable() []Report {
	return []Report{
		{AgentID: strings.Repeat("a", 256), Batch: []Measurement{{RequestID: 1, Column: 0, Value: 1}}},
		{AgentID: "agent", Batch: []Measurement{{RequestID: 1, Column: math.MaxInt32 + 1, Value: 1}}},
		{AgentID: "agent", Batch: []Measurement{{RequestID: 1, Column: 0}, {RequestID: 1, Column: math.MinInt32 - 1}}},
	}
}

// TestSendRejectsUnrepresentableReport: without a journal, a report the
// wire layout cannot carry fails with ErrUnrepresentable and nothing
// reaches the connection.
func TestSendRejectsUnrepresentableReport(t *testing.T) {
	bc := newByteCounter(t)
	sender, err := DialTCPOpts(bc.l.Addr().String(), SenderOptions{Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	dropped := monTCPDropped.Value()
	for i, r := range unrepresentable() {
		if err := sender.Send(r); !errors.Is(err, ErrUnrepresentable) {
			t.Fatalf("report %d: Send = %v, want ErrUnrepresentable", i, err)
		}
	}
	sender.Close()
	if n := bc.received(); n != 0 {
		t.Fatalf("%d bytes reached the connection", n)
	}
	if monTCPDropped.Value() != dropped {
		t.Fatal("a rejected report was counted as dropped after retries")
	}
}

// TestDurableSendRejectsUnrepresentableReport: durable mode fails the same
// reports with the same error, journaling and writing nothing.
func TestDurableSendRejectsUnrepresentableReport(t *testing.T) {
	bc := newByteCounter(t)
	j := openTestJournal(t, "unrep.wal")
	sender, err := DialTCPOpts(bc.l.Addr().String(), SenderOptions{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range unrepresentable() {
		if err := sender.Send(r); !errors.Is(err, ErrUnrepresentable) {
			t.Fatalf("report %d: Send = %v, want ErrUnrepresentable", i, err)
		}
	}
	sender.Close()
	if n := bc.received(); n != 0 {
		t.Fatalf("%d bytes reached the connection", n)
	}
	if p := j.Pending(); p != 0 {
		t.Fatalf("%d rejected reports were journaled", p)
	}
}
