package experiments

import (
	"context"
	"fmt"

	"kertbn/internal/core"
	"kertbn/internal/decentral"
	"kertbn/internal/learn"
	"kertbn/internal/pool"
	"kertbn/internal/stats"
)

// Fig5Config parameterizes the decentralized-vs-centralized parameter
// learning comparison.
type Fig5Config struct {
	Seed uint64
	// Sizes are the service counts swept.
	Sizes []int
	// ModelsPerSize is how many random KERT-BNs are learned per size
	// (paper: 20).
	ModelsPerSize int
	// TrainSize is the window the parameters are learned from.
	TrainSize int
	// UseTCP routes column shipping through the TCP fabric instead of
	// in-process copies.
	UseTCP bool
	// Workers bounds how many (size, model) jobs run concurrently (<= 1
	// serial). Each job still runs its own decentralized round with one
	// learner per CPD — Workers only stacks independent rounds — so the ops
	// panels are unchanged; the wall-clock panel contends when Workers > 1
	// (see Fig3Config.Workers).
	Workers int
}

// DefaultFig5Config reproduces the paper's settings.
func DefaultFig5Config() Fig5Config {
	return Fig5Config{
		Seed:          5,
		Sizes:         []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
		ModelsPerSize: 20,
		TrainSize:     360,
	}
}

// Fig5 regenerates Figure 5: the time to learn all unknown KERT-BN CPDs
// decentrally (max over concurrently-computing agents) versus centrally
// (one server doing everything), as environment size grows. Both wall-clock
// seconds and the deterministic operation-count ratio are reported.
func Fig5(cfg Fig5Config) ([]*FigResult, error) {
	var shipper decentral.Shipper = decentral.InProcShipper{}
	if cfg.UseTCP {
		fabric, err := decentral.NewTCPFabric()
		if err != nil {
			return nil, err
		}
		defer fabric.Close()
		shipper = fabric
	}
	// Each (size, model) pair is one independent learning round drawing
	// from its own Seed-split stream.
	root := stats.NewRNG(cfg.Seed)
	nJobs := len(cfg.Sizes) * cfg.ModelsPerSize
	type jobOut struct{ decS, cenS, decO, cenO float64 }
	outs := make([]jobOut, nJobs)
	err := pool.ForEach(context.Background(), "exp.fig5", nJobs, serialDefault(cfg.Workers), func(j int) error {
		n := cfg.Sizes[j/cfg.ModelsPerSize]
		sys, train, _, err := freshData(n, cfg.TrainSize, 1, root.Split(uint64(j)))
		if err != nil {
			return err
		}
		// Build the KERT structure (knowledge; not timed here) and then
		// learn the unknown CPDs through the decentral engine.
		model, err := core.BuildKERT(core.DefaultKERTConfig(sys.Workflow), train.Head(2))
		if err != nil {
			return err
		}
		plans, err := decentral.PlanFromNetwork(model.Net, nil)
		if err != nil {
			return err
		}
		cols := make(decentral.Columns, train.NumCols())
		for c := range cols {
			cols[c] = train.Col(c)
		}
		res, err := decentral.Learn(plans, cols, shipper, learn.DefaultOptions())
		if err != nil {
			return fmt.Errorf("size %d model %d: %w", n, j%cfg.ModelsPerSize, err)
		}
		outs[j] = jobOut{
			decS: res.DecentralizedTime.Seconds(),
			cenS: res.CentralizedTime.Seconds(),
			decO: float64(res.DecentralizedCost),
			cenO: float64(res.CentralizedCost),
		}
		benchHist("decentral.learn", n, outs[j].decS)
		benchHist("central.learn", n, outs[j].cenS)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var xs, decT, cenT, decOps, cenOps []float64
	for si, n := range cfg.Sizes {
		var dSum, cSum, dOps, cOps float64
		for m := 0; m < cfg.ModelsPerSize; m++ {
			o := outs[si*cfg.ModelsPerSize+m]
			dSum += o.decS
			cSum += o.cenS
			dOps += o.decO
			cOps += o.cenO
		}
		k := float64(cfg.ModelsPerSize)
		xs = append(xs, float64(n))
		decT = append(decT, dSum/k)
		cenT = append(cenT, cSum/k)
		decOps = append(decOps, dOps/k)
		cenOps = append(cenOps, cOps/k)
	}
	timePanel := &FigResult{
		ID:     "fig5-time",
		Title:  "Decentralized vs centralized KERT-BN parameter learning time",
		XLabel: "services",
		YLabel: "seconds",
		Series: []Series{
			{Name: "decentralized_s", X: xs, Y: decT},
			{Name: "centralized_s", X: xs, Y: cenT},
		},
		Notes: []string{
			"expected shape: decentralized (max of concurrent per-CPD times) below centralized (sum), gap widening with size",
		},
	}
	opsPanel := &FigResult{
		ID:     "fig5-ops",
		Title:  "Same comparison in deterministic data operations",
		XLabel: "services",
		YLabel: "data_ops",
		Series: []Series{
			{Name: "decentralized_ops", X: xs, Y: decOps},
			{Name: "centralized_ops", X: xs, Y: cenOps},
		},
	}
	return []*FigResult{timePanel, opsPanel}, nil
}
