package decentral

import (
	"fmt"
	"time"

	"kertbn/internal/bn"
	"kertbn/internal/obs"
	"kertbn/internal/wire/binfmt"
)

// CPD-shipping metrics: fitted-parameter deltas moved to the management
// server, their wire bytes, and ships skipped because the transport (or the
// CPD family) cannot carry them.
var (
	decCPDShips     = obs.C("decentral.cpd_ships")
	decCPDShipBytes = obs.C("decentral.cpd_ship_bytes")
	decCPDSkips     = obs.C("decentral.cpd_ship_skips")
)

// CPDShipper is implemented by transports that can move a fitted CPD delta
// from a learning agent to the management server and return the delta as
// the receiver saw it. `from` is the shipping node, `attempt` keys fault
// plans like column ships.
type CPDShipper interface {
	ShipCPD(from, attempt int, delta *binfmt.CPDDelta) (*binfmt.CPDDelta, error)
}

// cpdToDelta converts a fitted CPD into its wire form. ok is false for
// families without a fixed layout (DetFunc and friends never ship).
func cpdToDelta(node int, cpd bn.CPD) (*binfmt.CPDDelta, bool) {
	switch c := cpd.(type) {
	case *bn.Tabular:
		return &binfmt.CPDDelta{
			Node: node, Kind: binfmt.KindTabular,
			Card: c.Card, ParentCard: c.ParentCard, P: c.P,
		}, true
	case *bn.LinearGaussian:
		return &binfmt.CPDDelta{
			Node: node, Kind: binfmt.KindGaussian,
			Intercept: c.Intercept, Sigma: c.Sigma, Coef: c.Coef,
		}, true
	default:
		return nil, false
	}
}

// deltaToCPD reconstructs the CPD a delta carries. The parameters are used
// as-is (raw IEEE-754 bits survived the wire), so the reconstructed CPD is
// bit-identical to the one the learner fitted.
func deltaToCPD(d *binfmt.CPDDelta) (bn.CPD, error) {
	switch d.Kind {
	case binfmt.KindTabular:
		rows := 1
		for _, pc := range d.ParentCard {
			rows *= pc
		}
		if len(d.P) != rows*d.Card {
			return nil, fmt.Errorf("decentral: CPD delta for node %d has %d cells, want %d", d.Node, len(d.P), rows*d.Card)
		}
		return &bn.Tabular{Card: d.Card, ParentCard: d.ParentCard, P: d.P}, nil
	case binfmt.KindGaussian:
		return &bn.LinearGaussian{Intercept: d.Intercept, Coef: d.Coef, Sigma: d.Sigma}, nil
	default:
		return nil, fmt.Errorf("decentral: unknown CPD delta kind %d", int(d.Kind))
	}
}

// shipFittedCPD routes a freshly fitted CPD through the shipper's CPD path
// when it has one, installing the round-tripped parameters. Shipping is an
// observability/deployment hop, not a correctness dependency: any failure
// (transport without CPD support, CPD family without a fixed layout, wire
// error) keeps the locally fitted CPD and counts a skip, so a round never
// loses a node's model to a CPD-ship fault. Because the binary layout is bit-exact, a
// successful round trip is indistinguishable from the local fit.
func shipFittedCPD(shipper Shipper, node int, cpd bn.CPD) bn.CPD {
	cs, ok := shipper.(CPDShipper)
	if !ok {
		decCPDSkips.Inc()
		return cpd
	}
	delta, ok := cpdToDelta(node, cpd)
	if !ok {
		decCPDSkips.Inc()
		return cpd
	}
	back, err := cs.ShipCPD(node, 0, delta)
	if err != nil {
		decCPDSkips.Inc()
		return cpd
	}
	out, err := deltaToCPD(back)
	if err != nil {
		decCPDSkips.Inc()
		return cpd
	}
	decCPDShips.Inc()
	return out
}

// ShipCPD implements CPDShipper for the in-process path: the delta makes a
// real encode/decode round trip through the fixed binary layout, so the
// simulation accounts true wire bytes and exercises the codec end to end.
func (InProcShipper) ShipCPD(from, attempt int, delta *binfmt.CPDDelta) (*binfmt.CPDDelta, error) {
	start := time.Now()
	payload, err := delta.AppendWire(nil)
	if err != nil {
		return nil, fmt.Errorf("decentral: encode CPD delta: %w", err)
	}
	var back binfmt.CPDDelta
	if err := back.UnmarshalWire(payload); err != nil {
		return nil, fmt.Errorf("decentral: decode CPD delta: %w", err)
	}
	decCPDShipBytes.Add(int64(len(payload)))
	decShipSec.Observe(time.Since(start).Seconds())
	return &back, nil
}
