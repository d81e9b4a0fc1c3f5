// Decentralized parameter learning (Section 3.4): each service's
// monitoring agent learns its own CPD P(X_i | Φ(X_i)) concurrently,
// receiving parent columns over a real TCP fabric. The decentralized
// wall time (max over agents) is compared with what one central server
// doing everything serially would spend — the Figure-5 effect, live.
package main

import (
	"fmt"
	"log"

	"kertbn"
)

func main() {
	rng := kertbn.NewRNG(11)
	// A 40-service random environment with a 360-point training window.
	sys, err := kertbn.RandomSystem(40, kertbn.DefaultRandomSystemOptions(), rng)
	if err != nil {
		log.Fatal(err)
	}
	train, err := sys.GenerateDataset(360, rng)
	if err != nil {
		log.Fatal(err)
	}

	// The KERT-BN structure comes from workflow knowledge — instantly.
	model, err := kertbn.BuildKERT(kertbn.DefaultKERTConfig(sys.Workflow), train.Head(2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("KERT-BN structure: %d nodes, %d edges (from workflow knowledge)\n",
		model.Net.N(), model.Net.EdgeCount())

	// Extract one learning plan per unknown CPD; the D node is
	// knowledge-given and needs no learning.
	plans, err := kertbn.PlanFromNetwork(model.Net, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("learning plans: %d agents (D excluded — its CPD comes from f)\n", len(plans))

	cols := make(kertbn.Columns, train.NumCols())
	for j := range cols {
		cols[j] = train.Col(j)
	}

	// Round 1: in-process shipping (simulation).
	res, err := kertbn.LearnDecentralized(plans, cols, kertbn.InProcShipper{}, kertbn.DefaultLearnOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nin-process shipping:")
	report(res)

	// Round 2: the same learning with columns shipped through real TCP
	// sockets (fixed-layout binary frames) — the distributed deployment
	// stand-in.
	fabric, err := kertbn.NewTCPFabric()
	if err != nil {
		log.Fatal(err)
	}
	defer fabric.Close()
	resTCP, err := kertbn.LearnDecentralized(plans, cols, fabric, kertbn.DefaultLearnOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nTCP shipping (relay %s):\n", fabric.Addr())
	report(resTCP)

	// Install the TCP-learned CPDs and validate the finished model.
	if err := kertbn.InstallCPDs(model.Net, resTCP); err != nil {
		log.Fatal(err)
	}
	if err := model.Net.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmodel complete and validated — ready for dComp/pAccel queries")
}

func report(res *kertbn.DecentralResult) {
	fmt.Printf("  decentralized (max of concurrent agents): %v\n", res.DecentralizedTime)
	fmt.Printf("  centralized   (sum, one server):          %v\n", res.CentralizedTime)
	if res.DecentralizedTime > 0 {
		fmt.Printf("  speedup: %.1fx  |  op-count ratio: %.1fx\n",
			float64(res.CentralizedTime)/float64(res.DecentralizedTime),
			float64(res.CentralizedCost)/float64(res.DecentralizedCost))
	}
	var slowest int
	var slowestWait, totalWait float64
	for id, nr := range res.PerNode {
		w := nr.ShipWait.Seconds()
		totalWait += w
		if w > slowestWait {
			slowest, slowestWait = id, w
		}
	}
	fmt.Printf("  column-shipping wait: total %.4fs, slowest agent %d at %.4fs\n",
		totalWait, slowest, slowestWait)
}
