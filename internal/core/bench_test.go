package core

import (
	"testing"

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
