package monitor

import (
	"path/filepath"
	"testing"

	"kertbn/internal/journal"
)

// BenchmarkDurableSend times one durable Send of a 25-measurement batch
// (kertmon's agent batch size) through a file journal to a loopback
// TCPServer whose row sink does nothing: journal append, frame encode,
// write, and the inline ack read — the agent's share of the stream path.
func BenchmarkDurableSend(b *testing.B) {
	inner, err := NewServer(1, func([]float64) {})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := ListenTCP("127.0.0.1:0", inner)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	j, err := journal.Open(journal.Options{Path: filepath.Join(b.TempDir(), "bench.wal")})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	sender, err := DialTCPOpts(srv.Addr(), SenderOptions{Journal: j, AgentKey: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer sender.Close()
	r := Report{AgentID: "agent-0", Batch: make([]Measurement, 25)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range r.Batch {
			id := int64(i*len(r.Batch) + k)
			r.Batch[k] = Measurement{RequestID: id, Column: 0, Value: float64(id)}
		}
		if err := sender.Send(r); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := sender.FlushJournal(); err != nil {
		b.Fatal(err)
	}
	if got, want := inner.CompleteCount(), b.N*len(r.Batch); got != want {
		b.Fatalf("server assembled %d rows, want %d", got, want)
	}
}
