package decentral

import (
	"testing"

	"kertbn/internal/wire/binfmt"
)

// TestFabricTelemetryPassThrough: a telemetry snapshot shipped through the
// relay lands in the TelemetrySink exactly once and the echo acks it.
func TestFabricTelemetryPassThrough(t *testing.T) {
	got := make(chan binfmt.TelemetrySnapshot, 1)
	f, err := NewTCPFabricOpts(FabricOptions{
		TelemetrySink: func(s *binfmt.TelemetrySnapshot) {
			cp := *s
			cp.Counters = append([]binfmt.TelemetryCounter(nil), s.Counters...)
			got <- cp
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	snap := &binfmt.TelemetrySnapshot{
		Source: "node-3", Epoch: 11, Seq: 4, WallUnixNS: 99,
		Counters: []binfmt.TelemetryCounter{{Name: "decentral.ships", Delta: 6}},
	}
	if err := f.SendTelemetry(snap); err != nil {
		t.Fatalf("SendTelemetry: %v", err)
	}
	select {
	case s := <-got:
		if s.Source != "node-3" || s.Epoch != 11 || s.Seq != 4 ||
			len(s.Counters) != 1 || s.Counters[0].Delta != 6 {
			t.Fatalf("sink got %+v", s)
		}
	default:
		t.Fatal("sink never received the snapshot")
	}

}
