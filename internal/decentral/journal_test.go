package decentral

import (
	"context"
	"net"
	"path/filepath"
	"testing"
	"time"

	"kertbn/internal/faulty"
	"kertbn/internal/journal"
	"kertbn/internal/learn"
	"kertbn/internal/wire"
	"kertbn/internal/wire/binfmt"
)

func openFabricJournal(t *testing.T) *journal.Journal {
	t.Helper()
	j, err := journal.Open(journal.Options{Path: filepath.Join(t.TempDir(), "fabric.wal")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func sampleCol(n int, base float64) []float64 {
	col := make([]float64, n)
	for i := range col {
		col[i] = base + float64(i)
	}
	return col
}

// TestDurableShipRoundTrip: the journaled path delivers the same bytes as
// the direct path and leaves nothing pending once the relay's echo acks.
func TestDurableShipRoundTrip(t *testing.T) {
	j := openFabricJournal(t)
	f, err := NewTCPFabricOpts(FabricOptions{Journal: j, Origin: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	col := sampleCol(16, 0.5)
	got, err := f.Ship(2, 5, col)
	if err != nil {
		t.Fatal(err)
	}
	for i := range col {
		if got[i] != col[i] {
			t.Fatalf("shipped column[%d] = %v, want %v", i, got[i], col[i])
		}
	}
	if j.Pending() != 0 {
		t.Fatalf("journal holds %d records after an acked ship", j.Pending())
	}
	if j.LastSeq() != 1 {
		t.Fatalf("LastSeq = %d, want 1", j.LastSeq())
	}
}

// truncThenCleanEdge searches the injector's deterministic schedule for a
// shipping edge whose first attempt truncates mid-frame and whose retry is
// clean — the replayable crash-mid-replay shape.
func truncThenCleanEdge(t *testing.T, inj *faulty.Injector) (int, int) {
	t.Helper()
	for from := 0; from < 500; from++ {
		key := edgeKey(from, from+1)
		if inj.Plan(key, 0).TruncateAfter >= 0 && inj.Plan(key, 1).Clean() {
			return from, from + 1
		}
	}
	t.Fatal("no truncate-then-clean edge in the first 500")
	return 0, 0
}

// cleanEdge finds an edge whose first attempt is clean.
func cleanEdge(t *testing.T, inj *faulty.Injector, avoidFrom int) (int, int) {
	t.Helper()
	for from := 0; from < 500; from++ {
		if from == avoidFrom {
			continue
		}
		if inj.Plan(edgeKey(from, from+1), 0).Clean() {
			return from, from + 1
		}
	}
	t.Fatal("no clean edge in the first 500")
	return 0, 0
}

// TestDurableShipReplaysAfterTruncatedConn: a connection that dies mid-frame
// fails the attempt but not the segment — it stays journaled, the retry
// re-ships the SAME record (no duplicate append), and the echo finally acks
// it. Fully deterministic under the injector seed.
func TestDurableShipReplaysAfterTruncatedConn(t *testing.T) {
	inj, err := faulty.NewInjector(faulty.Config{Seed: 21, Truncate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	from, to := truncThenCleanEdge(t, inj)
	j := openFabricJournal(t)
	f, err := NewTCPFabricOpts(FabricOptions{
		Journal: j, Injector: inj,
		IOTimeout: 300 * time.Millisecond, DialTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// 64 floats put the frame well past MaxFaultOffset, so the truncation is
	// guaranteed to cut it.
	col := sampleCol(64, 1)
	if _, err := f.ShipAttempt(from, to, 0, col); err == nil {
		t.Fatal("truncated attempt must fail")
	}
	if j.Pending() != 1 || j.LastSeq() != 1 {
		t.Fatalf("after failed attempt: pending %d lastSeq %d, want 1/1", j.Pending(), j.LastSeq())
	}
	got, err := f.ShipAttempt(from, to, 1, col)
	if err != nil {
		t.Fatalf("clean retry: %v", err)
	}
	for i := range col {
		if got[i] != col[i] {
			t.Fatalf("replayed column[%d] = %v, want %v", i, got[i], col[i])
		}
	}
	// The retry replayed the existing record instead of appending a twin.
	if j.Pending() != 0 || j.LastSeq() != 1 {
		t.Fatalf("after retry: pending %d lastSeq %d, want 0/1", j.Pending(), j.LastSeq())
	}
}

// TestDurableShipDrainsStrandedSegments: a segment stranded by one edge's
// dead shipment rides ahead of the next edge's shipment — replay is in
// journal order, so an outage costs latency, never ordering or data.
func TestDurableShipDrainsStrandedSegments(t *testing.T) {
	inj, err := faulty.NewInjector(faulty.Config{Seed: 22, Truncate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	aFrom, aTo := truncThenCleanEdge(t, inj)
	bFrom, bTo := cleanEdge(t, inj, aFrom)
	j := openFabricJournal(t)
	f, err := NewTCPFabricOpts(FabricOptions{
		Journal: j, Injector: inj,
		IOTimeout: 300 * time.Millisecond, DialTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	colA := sampleCol(64, 10)
	if _, err := f.ShipAttempt(aFrom, aTo, 0, colA); err == nil {
		t.Fatal("edge A's truncated attempt must fail")
	}
	if j.Pending() != 1 {
		t.Fatalf("edge A's segment not stranded: pending %d", j.Pending())
	}
	colB := sampleCol(64, 20)
	got, err := f.ShipAttempt(bFrom, bTo, 0, colB)
	if err != nil {
		t.Fatalf("edge B ship: %v", err)
	}
	for i := range colB {
		if got[i] != colB[i] {
			t.Fatalf("edge B column[%d] = %v, want %v", i, got[i], colB[i])
		}
	}
	// Edge B's successful shipment drained edge A's stranded record too.
	if j.Pending() != 0 {
		t.Fatalf("stranded segment not drained: pending %d", j.Pending())
	}
}

// TestRelayDedupSuppressesDuplicates hand-replays the same journaled frame
// twice on a raw connection: the relay answers both (the echo is the ack the
// shipper missed) but counts and suppresses the duplicate.
func TestRelayDedupSuppressesDuplicates(t *testing.T) {
	j := openFabricJournal(t)
	f, err := NewTCPFabricOpts(FabricOptions{Journal: j, Origin: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	conn, err := net.DialTimeout("tcp", f.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	seg, err := (&binfmt.RowSegment{From: 1, To: 2, Col: []float64{3, 4}}).AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	env, err := (&binfmt.Journaled{Origin: 9, Seq: 1, Inner: seg}).AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	before := decDups.Value()
	for i := 0; i < 2; i++ {
		if err := conn.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := wire.WriteBinaryPayload(conn, env, wire.TraceContext{}); err != nil {
			t.Fatal(err)
		}
		var echo binfmt.Journaled
		if _, err := wire.Decode(conn, 0, &echo); err != nil {
			t.Fatalf("echo %d: %v", i, err)
		}
		if echo.Origin != 9 || echo.Seq != 1 {
			t.Fatalf("echo %d = origin %d seq %d", i, echo.Origin, echo.Seq)
		}
	}
	if got := decDups.Value() - before; got != 1 {
		t.Fatalf("dup_suppressed advanced by %d, want 1", got)
	}
}

// TestDurableFabricSkipsDropAccounting: an exhausted retry budget on a
// journaled fabric is not data loss — the segments are parked on disk — so
// decentral.dropped_segments must advance only for non-durable shippers.
func TestDurableFabricSkipsDropAccounting(t *testing.T) {
	net := buildChainNet(t)
	plans, _ := PlanFromNetwork(net, nil)
	cols := chainColumns(300, 23)
	inj, err := faulty.NewInjector(faulty.Config{Seed: 23, Drop: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Non-durable fabric: every edge's budget exhausts and each lost segment
	// is counted.
	plain, err := NewTCPFabricOpts(FabricOptions{
		Injector: inj, DialTimeout: 100 * time.Millisecond, IOTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	before := decDropped.Value()
	if _, err := LearnRobust(context.Background(), plans, cols, plain, learn.Options{},
		RobustOptions{ShipRetries: 1, Backoff: tinyBackoff, Fallback: FallbackLocal}); err != nil {
		t.Fatal(err)
	}
	if decDropped.Value()-before != 2 {
		t.Fatalf("dropped_segments advanced by %d, want 2 (both chain edges)", decDropped.Value()-before)
	}

	// Durable fabric under the same outage: no drops counted, segments parked.
	j := openFabricJournal(t)
	durable, err := NewTCPFabricOpts(FabricOptions{
		Journal: j, Injector: inj, DialTimeout: 100 * time.Millisecond, IOTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	before = decDropped.Value()
	if _, err := LearnRobust(context.Background(), plans, cols, durable, learn.Options{},
		RobustOptions{ShipRetries: 1, Backoff: tinyBackoff, Fallback: FallbackLocal}); err != nil {
		t.Fatal(err)
	}
	if got := decDropped.Value() - before; got != 0 {
		t.Fatalf("durable fabric counted %d dropped segments; journal makes them pending, not lost", got)
	}
	if j.Pending() == 0 {
		t.Fatal("failed durable shipments must leave their segments pending")
	}
}
