package core

import (
	"testing"

	"kertbn/internal/bn"
	"kertbn/internal/infer"
)

// modelSink keeps benchmark results live so the calls cannot be optimized
// away.
var modelSink any

// BenchmarkPosteriorDiscrete times exact variable elimination on the
// discrete eDiaMoND model kertmon builds: D's marginal with no evidence,
// and a service's posterior with D observed.
func BenchmarkPosteriorDiscrete(b *testing.B) {
	m := goldenDiscreteModel(b)
	cases := []struct {
		name  string
		query int
		ev    infer.DiscreteEvidence
	}{
		{"no_evidence", m.DNode, nil},
		{"D_observed", 3, infer.DiscreteEvidence{m.DNode: 5}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				post, err := infer.Posterior(m.Net, c.query, c.ev)
				if err != nil {
					b.Fatal(err)
				}
				modelSink = post
			}
		})
	}
}

// BenchmarkIncrementalKERTBuild times one steady-state refit of the
// discrete eDiaMoND model over a full 300-row window: count-table CPDs
// plus the sharded Monte-Carlo D-CPT.
func BenchmarkIncrementalKERTBuild(b *testing.B) {
	const window = 300
	sys, data := edData(b, window, 13)
	ik, err := NewIncrementalKERT(discreteEDConfig(sys), window)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range data.Rows {
		if err := ik.Ingest(row); err != nil {
			b.Fatal(err)
		}
	}
	// The first build freezes the codec and binds the accumulators.
	if _, err := ik.Build(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := ik.Build()
		if err != nil {
			b.Fatal(err)
		}
		modelSink = m
	}
}

// BenchmarkIncrementalKERTIngest times one steady-state Ingest into the
// discrete eDiaMoND builder with a full 40,000-row window — perfbench
// stream's shape: each row evicts the oldest and updates the count tables.
func BenchmarkIncrementalKERTIngest(b *testing.B) {
	const window = 40_000
	sys, data := edData(b, 2*window, 14)
	ik, err := NewIncrementalKERT(discreteEDConfig(sys), window)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range data.Rows[:window] {
		if err := ik.Ingest(row); err != nil {
			b.Fatal(err)
		}
	}
	// The first build freezes the codec and binds the accumulators.
	if _, err := ik.Build(); err != nil {
		b.Fatal(err)
	}
	rows := data.Rows[window:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ik.Ingest(rows[i%len(rows)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetCPTRows times the Monte-Carlo D-CPT row loop alone on one
// goroutine: a full 6^6-row table of the golden discrete model, 16
// samples per row, from pools fixed before the timer starts.
func BenchmarkDetCPTRows(b *testing.B) {
	sys, train := edData(b, 600, 11)
	cfg := discreteEDConfig(sys)
	cfg.fillDefaults()
	m, err := BuildKERT(cfg, train)
	if err != nil {
		b.Fatal(err)
	}
	n := m.NumServices
	pools := binPools(m.Codec, n, cfg.Bins, train.NumRows(), func(r int) []float64 { return train.Rows[r] })
	dDisc := m.Codec.Discretizers[m.DNode]
	f := cfg.metricProgram()
	tab := m.Net.Node(m.DNode).CPD.(*bn.Tabular)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := detCPTRows(cfg, m.Codec, dDisc, f, pools, tab, 0, tab.Rows()); err != nil {
			b.Fatal(err)
		}
	}
}
