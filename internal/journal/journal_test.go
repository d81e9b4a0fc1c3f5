package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"kertbn/internal/stats"
)

// collect drains the journal's pending set into (seq, payload) pairs.
func collect(t *testing.T, j *Journal) (seqs []uint64, payloads [][]byte) {
	t.Helper()
	err := j.Replay(func(seq uint64, payload []byte, attempts int) error {
		seqs = append(seqs, seq)
		payloads = append(payloads, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return seqs, payloads
}

func TestMemoryAppendAckReplay(t *testing.T) {
	j, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 5; i++ {
		seq, err := j.Append([]byte{byte(i), 0xAA})
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	j.Ack(2)
	if got := j.Pending(); got != 3 {
		t.Fatalf("pending = %d, want 3", got)
	}
	seqs, payloads := collect(t, j)
	if len(seqs) != 3 || seqs[0] != 3 || seqs[2] != 5 {
		t.Fatalf("replayed seqs = %v, want [3 4 5]", seqs)
	}
	if payloads[0][0] != 2 {
		t.Fatalf("payload mismatch: %v", payloads[0])
	}
	// Cumulative ack including already-acked ground.
	j.Ack(5)
	if got := j.Pending(); got != 0 {
		t.Fatalf("pending after full ack = %d, want 0", got)
	}
	if j.AckedSeq() != 5 || j.LastSeq() != 5 {
		t.Fatalf("acked/last = %d/%d", j.AckedSeq(), j.LastSeq())
	}
}

func TestDiskRecoveryReplaysUnacked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "agent.journal")
	j, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 7; i++ {
		p := []byte{0x01, 0x01, byte(i)}
		want = append(want, p)
		if _, err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	// Partial ack: acks are not persisted, so reopen replays everything
	// still in the file — at-least-once by construction.
	j.Ack(3)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Recovered() != 7 {
		t.Fatalf("recovered = %d, want 7 (acks must not persist)", j2.Recovered())
	}
	seqs, payloads := collect(t, j2)
	for i, p := range payloads {
		if !bytes.Equal(p, want[i]) {
			t.Fatalf("record %d payload = %v, want %v", i, p, want[i])
		}
	}
	if seqs[0] != 1 || seqs[6] != 7 {
		t.Fatalf("seqs = %v", seqs)
	}
	// New appends continue the sequence past the recovered tail.
	seq, err := j2.Append([]byte{0x01, 0x01, 0xFF})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 8 {
		t.Fatalf("post-recovery seq = %d, want 8", seq)
	}
}

func TestFullDrainResetsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "agent.journal")
	j, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := j.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Ack(4)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 0 {
		t.Fatalf("file size after full drain = %d, want 0", st.Size())
	}
	j.Close()
	j2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Recovered() != 0 {
		t.Fatalf("recovered = %d, want 0", j2.Recovered())
	}
}

// TestTornTailSweep is the crash-mid-append battery: a valid journal cut at
// EVERY byte offset must recover exactly the complete-record prefix, discard
// the rest, and never panic or duplicate. Payload sizes are drawn from a
// seeded RNG so the sweep is deterministic.
func TestTornTailSweep(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "full.journal")
	j, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(99)
	var payloads [][]byte
	var bounds []int64 // cumulative end offset of each record
	var off int64
	for i := 0; i < 6; i++ {
		n := 1 + int(rng.Uint64()%40)
		p := make([]byte, n)
		for k := range p {
			p[k] = byte(rng.Uint64())
		}
		payloads = append(payloads, p)
		if _, err := j.Append(p); err != nil {
			t.Fatal(err)
		}
		off += recHeader + int64(n)
		bounds = append(bounds, off)
	}
	j.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != off {
		t.Fatalf("file size = %d, want %d", len(full), off)
	}
	for cut := int64(0); cut <= off; cut++ {
		cutPath := filepath.Join(dir, "cut.journal")
		if err := os.WriteFile(cutPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		jc, err := Open(Options{Path: cutPath})
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		wantN := 0
		for wantN < len(bounds) && bounds[wantN] <= cut {
			wantN++
		}
		if jc.Recovered() != wantN {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, jc.Recovered(), wantN)
		}
		wantTorn := cut
		if wantN > 0 {
			wantTorn = cut - bounds[wantN-1]
		}
		if jc.TornBytes() != wantTorn {
			t.Fatalf("cut=%d: torn bytes = %d, want %d", cut, jc.TornBytes(), wantTorn)
		}
		_, got := collect(t, jc)
		for i := 0; i < wantN; i++ {
			if !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("cut=%d: record %d corrupted by recovery", cut, i)
			}
		}
		// The torn tail must be gone from disk too: reopen after recovery
		// sees a clean file.
		jc.Close()
		st, _ := os.Stat(cutPath)
		wantSize := int64(0)
		if wantN > 0 {
			wantSize = bounds[wantN-1]
		}
		if st.Size() != wantSize {
			t.Fatalf("cut=%d: truncated size = %d, want %d", cut, st.Size(), wantSize)
		}
	}
}

// TestMidFileCorruption: flipping a byte inside an interior record discards
// that record and everything after it (the append-only format cannot resync
// past a bad frame) but never the records before it.
func TestMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j")
	j, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := j.Append([]byte{byte(i), 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	raw, _ := os.ReadFile(path)
	recSize := recHeader + 4
	raw[2*recSize+recHeader+1] ^= 0xFF // payload byte of record 3
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Recovered() != 2 {
		t.Fatalf("recovered = %d, want 2", j2.Recovered())
	}
	_, payloads := collect(t, j2)
	if payloads[0][0] != 0 || payloads[1][0] != 1 {
		t.Fatalf("prefix records corrupted: %v", payloads)
	}
}

func TestShedPolicy(t *testing.T) {
	j, err := Open(Options{MaxPending: 3, Policy: PolicyShed})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 5; i++ {
		if _, err := j.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if j.Shed() != 2 {
		t.Fatalf("shed = %d, want 2", j.Shed())
	}
	seqs, _ := collect(t, j)
	if len(seqs) != 3 || seqs[0] != 3 {
		t.Fatalf("pending seqs = %v, want [3 4 5]", seqs)
	}
	// The dedup window tolerates the shed-induced gap.
	d := NewDedup()
	for _, s := range seqs {
		if !d.Fresh(7, s) {
			t.Fatalf("seq %d wrongly deduped", s)
		}
	}
	if d.Fresh(7, 4) {
		t.Fatal("regression not deduped")
	}
	if !d.Fresh(8, 1) {
		t.Fatal("origins must be independent")
	}
}

func TestBlockPolicy(t *testing.T) {
	j, err := Open(Options{MaxPending: 1, Policy: PolicyBlock, BlockTimeout: 80 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := j.Append([]byte{1}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := j.Append([]byte{2}); !errors.Is(err, ErrFull) {
		t.Fatalf("err = %v, want ErrFull", err)
	}
	if d := time.Since(start); d < 60*time.Millisecond {
		t.Fatalf("ErrFull after %v: PolicyBlock must wait for BlockTimeout", d)
	}
	// An ack from another goroutine unblocks a waiting Append.
	go func() {
		time.Sleep(20 * time.Millisecond)
		j.Ack(1)
	}()
	if _, err := j.Append([]byte{3}); err != nil {
		t.Fatalf("Append after concurrent ack: %v", err)
	}
}

func TestCloseUnblocksAppend(t *testing.T) {
	j, err := Open(Options{MaxPending: 1, Policy: PolicyBlock, BlockTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append([]byte{1}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := j.Append([]byte{2})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	j.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not unblock Append")
	}
}

// TestSpillAndCompaction: payloads beyond the MemRecords threshold are
// dropped from memory and re-read (CRC re-checked) from disk on Replay, and
// acknowledging enough bytes triggers a compaction that rewrites only the
// pending records.
func TestSpillAndCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, err := Open(Options{Path: path, MemRecords: 2, CompactBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var want [][]byte
	for i := 0; i < 10; i++ {
		p := []byte{byte(i), 0x55, byte(i * 3)}
		want = append(want, p)
		if _, err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	_, payloads := collect(t, j)
	for i := range want {
		if !bytes.Equal(payloads[i], want[i]) {
			t.Fatalf("spilled record %d = %v, want %v", i, payloads[i], want[i])
		}
	}
	before, _ := os.Stat(path)
	j.Ack(8) // 8 * (18+3) = 168 acked bytes ≥ CompactBytes → compaction
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink file: %d → %d", before.Size(), after.Size())
	}
	_, payloads = collect(t, j)
	if len(payloads) != 2 || !bytes.Equal(payloads[0], want[8]) || !bytes.Equal(payloads[1], want[9]) {
		t.Fatalf("post-compaction pending = %v", payloads)
	}
	// Appends after compaction land in the rewritten file.
	if _, err := j.Append([]byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	seqs, _ := collect(t, j)
	if seqs[len(seqs)-1] != 11 {
		t.Fatalf("seqs after compaction+append = %v", seqs)
	}
}

func TestReplayCountsAttempts(t *testing.T) {
	j, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.Append([]byte{1})
	for round := 0; round < 3; round++ {
		err := j.Replay(func(seq uint64, payload []byte, attempts int) error {
			if attempts != round {
				t.Fatalf("round %d: attempts = %d", round, attempts)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestReplayErrorAborts(t *testing.T) {
	j, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 3; i++ {
		j.Append([]byte{byte(i)})
	}
	boom := errors.New("conn broke")
	n := 0
	err = j.Replay(func(seq uint64, payload []byte, attempts int) error {
		n++
		if n == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || n != 2 {
		t.Fatalf("err=%v n=%d", err, n)
	}
	if j.Pending() != 3 {
		t.Fatal("aborted replay must not consume records")
	}
}

func TestAppendTooLarge(t *testing.T) {
	j, _ := Open(Options{})
	defer j.Close()
	if _, err := j.Append(make([]byte, MaxRecord+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestConcurrentAppendAck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, err := Open(Options{Path: path, MemRecords: 8, CompactBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	const n = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		acked := uint64(0)
		for acked < n {
			if last := j.LastSeq(); last > acked {
				acked = last
				j.Ack(acked)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	for i := 0; i < n; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("r%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if j.AckedSeq() != n {
		t.Fatalf("acked = %d, want %d", j.AckedSeq(), n)
	}
}

// TestReplayAfterSkipsCursor: ReplayAfter enumerates only pending records
// above the cursor, so a transport's in-flight records are neither re-sent
// nor counted as replays, and a steady-state sweep allocates nothing.
func TestReplayAfterSkipsCursor(t *testing.T) {
	j, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 5; i++ {
		j.Append([]byte{byte(i)})
	}
	after := func(cursor uint64) (seqs []uint64, attempts []int) {
		t.Helper()
		err := j.ReplayAfter(cursor, func(seq uint64, payload []byte, n int) error {
			if payload[0] != byte(seq-1) {
				t.Fatalf("seq %d carries payload %v", seq, payload)
			}
			seqs = append(seqs, seq)
			attempts = append(attempts, n)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return seqs, attempts
	}
	replays := jReplays.Value()
	if seqs, att := after(2); fmt.Sprint(seqs, att) != "[3 4 5] [0 0 0]" {
		t.Fatalf("ReplayAfter(2) = %v attempts %v, want [3 4 5] first attempts", seqs, att)
	}
	if seqs, _ := after(5); len(seqs) != 0 {
		t.Fatalf("ReplayAfter(5) = %v, want nothing past the newest record", seqs)
	}
	if jReplays.Value() != replays {
		t.Fatal("first enumerations counted as replays")
	}
	// Records at or below the ack watermark are gone; the cursor may point
	// below it. Only re-enumerated records count as replays.
	j.Ack(3)
	if seqs, att := after(1); fmt.Sprint(seqs, att) != "[4 5] [1 1]" {
		t.Fatalf("ReplayAfter(1) after Ack(3) = %v attempts %v, want [4 5] second attempts", seqs, att)
	}
	if got := jReplays.Value() - replays; got != 2 {
		t.Fatalf("journal.replayed_records advanced by %d, want 2", got)
	}
	noop := func(uint64, []byte, int) error { return nil }
	if avg := testing.AllocsPerRun(100, func() { j.ReplayAfter(4, noop) }); avg != 0 {
		t.Fatalf("ReplayAfter over a resident record allocates %v per sweep, want 0", avg)
	}
}

// BenchmarkJournalAppend times one Append of a 500-byte payload (about one
// 25-measurement batch) to a file journal in steady state: every earlier
// record is acked, so the pending set stays at one and compaction reclaims
// the file every CompactBytes — with and without an fsync per record.
func BenchmarkJournalAppend(b *testing.B) {
	for _, sync := range []bool{false, true} {
		b.Run(fmt.Sprintf("sync=%v", sync), func(b *testing.B) {
			j, err := Open(Options{Path: filepath.Join(b.TempDir(), "bench.wal"), SyncOnAppend: sync})
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			payload := make([]byte, 500)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seq, err := j.Append(payload)
				if err != nil {
					b.Fatal(err)
				}
				j.Ack(seq - 1)
			}
		})
	}
}
