package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"kertbn/internal/bn"
	"kertbn/internal/infer"
	"kertbn/internal/simsvc"
	"kertbn/internal/stats"
)

// hashFloats fingerprints a float slice bit for bit.
func hashFloats(xs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

// discreteEDConfig is kertmon's discrete eDiaMoND configuration: 6 bins
// and a 2% leak.
func discreteEDConfig(sys *simsvc.System) KERTConfig {
	cfg := DefaultKERTConfig(sys.Workflow)
	cfg.Type = DiscreteModel
	cfg.Bins = 6
	cfg.Leak = 0.02
	return cfg
}

// goldenDiscreteModel builds the seeded discrete eDiaMoND KERT-BN the
// golden hashes below were recorded on.
func goldenDiscreteModel(tb testing.TB) *Model {
	tb.Helper()
	sys, train := edData(tb, 600, 11)
	m, err := BuildKERT(discreteEDConfig(sys), train)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestDiscreteKERTGolden pins the D-CPT and three exact posteriors of a
// seeded discrete model to hashes recorded before the factor kernels moved
// to stride walks and D-CPT generation was sharded: both changes must leave
// every bit of the model and of its answers where it was. The hashes were
// recorded on amd64; a platform whose compiler fuses multiply-adds may
// legitimately round differently.
func TestDiscreteKERTGolden(t *testing.T) {
	m := goldenDiscreteModel(t)
	d := m.DNode
	got := map[string]uint64{
		"dcpt": hashFloats(m.Net.Node(d).CPD.(*bn.Tabular).P),
	}
	queries := []struct {
		name  string
		query int
		ev    infer.DiscreteEvidence
	}{
		{"D", d, nil},
		{"X4|D=5", 3, infer.DiscreteEvidence{d: 5}},
		{"X1|D=2,X3=0", 0, infer.DiscreteEvidence{d: 2, 2: 0}},
	}
	for _, q := range queries {
		post, err := infer.Posterior(m.Net, q.query, q.ev)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		got[q.name] = hashFloats(post.Values)
	}
	want := map[string]uint64{
		"dcpt":        0xced087f6c4df3d4e,
		"D":           0xe38a9edce6b7cbd,
		"X4|D=5":      0xad530358a1f83109,
		"X1|D=2,X3=0": 0xa8b5e02b93d0f113,
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s hash = %#x, want %#x", k, got[k], w)
		}
	}
}

// TestTimeoutCountDCPTGolden pins the D-CPT of a seeded discrete
// timeout-count model (f = Σ X_i) to a hash recorded while TimeoutCount
// still summed over a freshly sorted service list per call: the compiled
// single-sum program must add in the same order.
func TestTimeoutCountDCPTGolden(t *testing.T) {
	cs := simsvc.EDiaMoNDCountSystem()
	train, err := cs.GenerateDataset(600, stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultKERTConfig(cs.Workflow)
	cfg.Metric = TimeoutCountMetric
	cfg.Type = DiscreteModel
	cfg.Bins = 6
	cfg.Leak = 0.02
	m, err := BuildKERT(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	const want = 0x3cf6552e7a436d96
	if got := hashFloats(m.Net.Node(m.DNode).CPD.(*bn.Tabular).P); got != want {
		t.Fatalf("timeout-count D-CPT hash = %#x, want %#x", got, want)
	}
}

// TestDetCPTIdenticalAcrossWorkerCounts: each D-CPT row draws from its own
// configuration-seeded stream and writes only its own row, so the table
// and its cost are the same whatever GOMAXPROCS shards the rows over.
func TestDetCPTIdenticalAcrossWorkerCounts(t *testing.T) {
	sys, train := edData(t, 400, 12)
	cfg := DefaultKERTConfig(sys.Workflow)
	cfg.Type = DiscreteModel
	cfg.Bins = 5
	cfg.Leak = 0.02
	cfg.fillDefaults()
	m, err := BuildKERT(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	n := m.NumServices
	build := func(procs int) (uint64, int64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		tab, cost, err := detCPT(cfg, m.Codec, m.Codec.Discretizers[train.NumCols()-1], n, train.NumRows(), func(r int) []float64 { return train.Rows[r] })
		if err != nil {
			t.Fatal(err)
		}
		return hashFloats(tab.P), cost.DataOps
	}
	h1, ops1 := build(1)
	for _, procs := range []int{2, 4} {
		h, ops := build(procs)
		if h != h1 || ops != ops1 {
			t.Fatalf("GOMAXPROCS=%d: D-CPT hash %#x ops %d, want %#x ops %d (GOMAXPROCS=1)", procs, h, ops, h1, ops1)
		}
	}
}
