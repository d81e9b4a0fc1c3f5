package decentral

import (
	"context"
	"math"
	"reflect"
	"testing"

	"kertbn/internal/bn"
	"kertbn/internal/learn"
	"kertbn/internal/wire/binfmt"
)

// bitEqualF64 compares two float slices bit for bit (NaN included) — the
// contract CPD shipping makes: the round-tripped parameters are the fitted
// parameters, not an approximation of them.
func bitEqualF64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestTCPFabricShipCPDRoundTrip ships both CPD families through the real
// relay socket and checks the echo is bit-exact.
func TestTCPFabricShipCPDRoundTrip(t *testing.T) {
	f, err := NewTCPFabric()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	ships := decCPDShipBytes.Value()
	gauss := &binfmt.CPDDelta{
		Node: 3, Kind: binfmt.KindGaussian,
		Intercept: 0.125, Sigma: 1e-12, Coef: []float64{1.5, -2.25, math.Pi},
	}
	back, err := f.ShipCPD(3, 0, gauss)
	if err != nil {
		t.Fatal(err)
	}
	if back.Node != 3 || back.Kind != binfmt.KindGaussian ||
		math.Float64bits(back.Intercept) != math.Float64bits(gauss.Intercept) ||
		math.Float64bits(back.Sigma) != math.Float64bits(gauss.Sigma) ||
		!bitEqualF64(back.Coef, gauss.Coef) {
		t.Fatalf("gaussian echo = %+v, want %+v", back, gauss)
	}

	tab := &binfmt.CPDDelta{
		Node: 1, Kind: binfmt.KindTabular,
		Card: 2, ParentCard: []int{3}, P: []float64{0.25, 0.75, 0.5, 0.5, 1, 0},
	}
	back, err = f.ShipCPD(1, 1, tab)
	if err != nil {
		t.Fatal(err)
	}
	if back.Node != 1 || back.Card != 2 || !reflect.DeepEqual(back.ParentCard, tab.ParentCard) || !bitEqualF64(back.P, tab.P) {
		t.Fatalf("tabular echo = %+v, want %+v", back, tab)
	}
	if decCPDShipBytes.Value() == ships {
		t.Fatal("CPD ship bytes were not accounted")
	}
}

// TestInProcShipperShipCPD: the in-process path still makes a real binary
// encode/decode round trip, so simulations account true wire bytes.
func TestInProcShipperShipCPD(t *testing.T) {
	d := &binfmt.CPDDelta{Node: 7, Kind: binfmt.KindTabular, Card: 3, P: []float64{0.2, 0.3, 0.5}}
	back, err := InProcShipper{}.ShipCPD(7, 0, d)
	if err != nil {
		t.Fatal(err)
	}
	if back.Node != 7 || back.Card != 3 || !bitEqualF64(back.P, d.P) {
		t.Fatalf("in-proc echo = %+v, want %+v", back, d)
	}
}

// columnOnlyShipper ships columns but has no CPD path — a transport shape
// shipFittedCPD must degrade around.
type columnOnlyShipper struct{}

func (columnOnlyShipper) Ship(from, to int, col []float64) ([]float64, error) {
	return InProcShipper{}.Ship(from, to, col)
}

// TestShipFittedCPDFallbacks: every failure mode of the CPD-ship hop keeps
// the locally fitted CPD and counts a skip — shipping is an observability
// hop, never a correctness dependency.
func TestShipFittedCPDFallbacks(t *testing.T) {
	fitted := &bn.LinearGaussian{Intercept: 1, Sigma: 0.5, Coef: []float64{2}}

	// Transport without a CPD path: keep the CPD, count a skip.
	skips := decCPDSkips.Value()
	if got := shipFittedCPD(columnOnlyShipper{}, 0, fitted); got != fitted {
		t.Fatalf("no-CPD-path shipper replaced the CPD: %v", got)
	}
	if decCPDSkips.Value() != skips+1 {
		t.Fatal("no-CPD-path skip was not counted")
	}

	// CPD family without a fixed layout: skip, keep the CPD.
	skips = decCPDSkips.Value()
	det := bn.CPD(&bn.DetFunc{})
	if got := shipFittedCPD(InProcShipper{}, 0, det); got != det {
		t.Fatalf("unshippable family replaced the CPD: %v", got)
	}
	if decCPDSkips.Value() != skips+1 {
		t.Fatal("unshippable-family skip was not counted")
	}

	// Happy path: the shipped CPD is bit-identical to the fitted one.
	ships := decCPDShips.Value()
	got := shipFittedCPD(InProcShipper{}, 0, fitted)
	lg, ok := got.(*bn.LinearGaussian)
	if !ok || math.Float64bits(lg.Intercept) != math.Float64bits(fitted.Intercept) ||
		math.Float64bits(lg.Sigma) != math.Float64bits(fitted.Sigma) || !bitEqualF64(lg.Coef, fitted.Coef) {
		t.Fatalf("shipped CPD = %#v, want bit-identical to %#v", got, fitted)
	}
	if decCPDShips.Value() != ships+1 {
		t.Fatal("successful ship was not counted")
	}
}

// TestLearnRobustShipCPDsDeterminism is the equivalence contract on the new
// deployment hop: a learning round that ships every fitted CPD through the
// binary codec produces CPDs bit-identical to a round that never ships —
// the wire layer is invisible to the learned model.
func TestLearnRobustShipCPDsDeterminism(t *testing.T) {
	net := buildChainNet(t)
	plans, err := PlanFromNetwork(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	cols := chainColumns(500, 10)

	local, err := LearnRobust(context.Background(), plans, cols, InProcShipper{}, learn.Options{}, RobustOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shipped, err := LearnRobust(context.Background(), plans, cols, InProcShipper{}, learn.Options{}, RobustOptions{ShipCPDs: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(shipped.PerNode) != len(local.PerNode) {
		t.Fatalf("shipped round learned %d nodes, local %d", len(shipped.PerNode), len(local.PerNode))
	}
	for id, lr := range local.PerNode {
		sr, ok := shipped.PerNode[id]
		if !ok {
			t.Fatalf("node %d missing from shipped round", id)
		}
		if !reflect.DeepEqual(sr.CPD, lr.CPD) {
			t.Fatalf("node %d: shipped CPD %#v != local CPD %#v", id, sr.CPD, lr.CPD)
		}
	}
}

// TestTCPFabricCodecPerAttempt: every attempt number ships the same single
// fixed-layout frame and round-trips bit-exactly — the encoding does not
// depend on the attempt, and because the fabric dials per attempt no
// connection state carries over from one attempt to the next.
func TestTCPFabricCodecPerAttempt(t *testing.T) {
	f, err := NewTCPFabric()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	col := []float64{1, 2, 3}
	for _, attempt := range []int{0, 1, 2, 3, 0} {
		before := decFramesBinary.Value()
		got, err := f.ShipAttempt(0, 1, attempt, col)
		if err != nil {
			t.Fatal(err)
		}
		if !bitEqualF64(got, col) {
			t.Fatalf("attempt %d returned %v", attempt, got)
		}
		if n := decFramesBinary.Value() - before; n != 1 {
			t.Fatalf("attempt %d: relay saw %d frames, want 1", attempt, n)
		}
	}
}
