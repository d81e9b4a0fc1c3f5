// Command kertbench regenerates the paper's evaluation figures (3–8).
//
// Usage:
//
//	kertbench [-exp all|fig3|fig4|fig5|fig6|fig7|fig8|parallel] [-quick] [-seed N] [-tcp] [-workers P]
//
// -quick shrinks sweeps and repetition counts for a fast sanity pass;
// the default settings mirror the paper's (which means the fig3/fig4
// sweeps take a while at full scale). -tcp routes Figure 5's column
// shipping through a real TCP socket instead of in-process copies.
//
// -workers fans the fig3/fig4/fig5 sweeps out over P concurrent jobs
// (averaged series are identical at any P; timing panels contend, so
// leave it at 1 when those are the point). -exp parallel runs the
// parallel-vs-serial inference benchmark whose snapshot is committed as
// BENCH_parallel.json (regenerate with `make bench-parallel`); -exp
// incremental runs the incremental-vs-full rebuild benchmark behind
// BENCH_incremental.json (regenerate with `make bench-incremental`);
// -exp drift runs the model-health drift benchmark behind
// BENCH_drift.json (regenerate with `make bench-drift`); -exp trace runs
// the distributed-tracing benchmark behind BENCH_trace.json (regenerate
// with `make bench-trace`).
//
// -exp outage runs the
// store-and-forward durability benchmark behind BENCH_outage.json
// (regenerate with `make bench-outage`): the same monitored row stream
// across a forced server outage with and without the journal, plus a
// truncation-chaos arm exercising the dedup window.
//
// -exp fleet runs the fleet telemetry benchmark behind BENCH_fleet.json
// (regenerate with `make bench-fleet`): several agents shipping delta
// snapshots over TCP into one aggregator, checking the rollup identity
// (counters bit-exact, merged-histogram quantiles within 1e-9) and the
// shipping overhead as a fraction of the monitored ingest path.
//
// -metrics-json dumps the internal/obs registry snapshot after the run:
// per-phase build spans, per-size bench.* histograms (build/learn/infer
// latency by system size), decentral ship bytes/latency — the perf
// baseline schema committed as BENCH_seed.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"kertbn/internal/experiments"
	"kertbn/internal/obs"
	"kertbn/internal/telemetry"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment to run: all, fig3, fig4, fig5, fig6, fig7, fig8, motivation, ablation, degradation, parallel, incremental, drift, trace, serve, wire, outage, fleet")
		quick       = flag.Bool("quick", false, "reduced sweeps for a fast sanity pass")
		seed        = flag.Uint64("seed", 0, "override the experiment seed (0 = per-figure default)")
		tcp         = flag.Bool("tcp", false, "fig5: ship columns over TCP instead of in-process")
		workers     = flag.Int("workers", 1, "fig3/fig4/fig5: concurrent sweep jobs (averaged series are worker-count-independent; keep 1 when timing panels matter)")
		metricsJSON = flag.String("metrics-json", "", "write the final metrics snapshot to this file")
		fleetAddr   = flag.String("fleet-addr", "", "ship this run's metric registry (bench.* series included) as fleet telemetry snapshots to the management server at this address (kertmon -mgmt-addr); the final increment flushes at exit")
		telEvery    = flag.Duration("telemetry-every", 10*time.Second, "telemetry snapshot interval (with -fleet-addr; 0 = one final snapshot at exit only)")
		telSource   = flag.String("telemetry-source", "kertbench", "origin name stamped on shipped telemetry snapshots")
	)
	flag.Parse()
	if *fleetAddr != "" {
		stopTel, err := telemetry.StartTCP(*fleetAddr, *telSource, *telEvery)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleet telemetry:", err)
			os.Exit(1)
		}
		defer stopTel()
	}

	run := func(name string) bool { return *exp == "all" || *exp == name }
	ok := false

	if run("fig3") {
		ok = true
		cfg := experiments.DefaultFig3Config()
		if *quick {
			cfg.TrainSizes = []int{36, 216, 600}
			cfg.Reps = 3
			cfg.Services = 15
		}
		if *seed != 0 {
			cfg.Seed = *seed
		}
		cfg.Workers = *workers
		render(experiments.Fig3(cfg))
	}
	if run("fig4") {
		ok = true
		cfg := experiments.DefaultFig4Config()
		if *quick {
			cfg.Sizes = []int{10, 30, 60}
			cfg.Reps = 3
		}
		if *seed != 0 {
			cfg.Seed = *seed
		}
		cfg.Workers = *workers
		render(experiments.Fig4(cfg))
	}
	if run("fig5") {
		ok = true
		cfg := experiments.DefaultFig5Config()
		cfg.UseTCP = *tcp
		if *quick {
			cfg.Sizes = []int{10, 30, 60}
			cfg.ModelsPerSize = 5
		}
		if *seed != 0 {
			cfg.Seed = *seed
		}
		cfg.Workers = *workers
		render(experiments.Fig5(cfg))
	}
	edCfg := experiments.DefaultEDiaMoNDConfig()
	if *quick {
		edCfg.RealSize = 2000
		edCfg.Fig8Reps = 2
	}
	if *seed != 0 {
		edCfg.Seed = *seed
	}
	if run("fig6") {
		ok = true
		renderOne(experiments.Fig6(edCfg))
	}
	if run("fig7") {
		ok = true
		renderOne(experiments.Fig7(edCfg))
	}
	if run("fig8") {
		ok = true
		renderOne(experiments.Fig8(edCfg))
	}
	if run("ablation") {
		ok = true
		aCfg := experiments.DefaultKnowledgeAblationConfig()
		if *quick {
			aCfg.Reps = 2
		}
		if *seed != 0 {
			aCfg.Seed = *seed
		}
		render(experiments.KnowledgeAblation(aCfg))
	}
	if run("motivation") {
		ok = true
		mCfg := experiments.DefaultMotivationConfig()
		if *quick {
			mCfg.Intervals = 10
			mCfg.ShiftAtInterval = 5
			mCfg.TestSize = 150
		}
		if *seed != 0 {
			mCfg.Seed = *seed
		}
		renderOne(experiments.Motivation(mCfg))
	}
	if run("degradation") {
		ok = true
		dCfg := experiments.DefaultDegradationConfig()
		if *quick {
			dCfg.Models = 3
			dCfg.RealSize = 2000
			dCfg.NSamples = 8000
			dCfg.FailFractions = []float64{0, 0.2, 0.4}
		}
		if *seed != 0 {
			dCfg.Seed = *seed
		}
		dCfg.Workers = *workers
		render(experiments.Degradation(dCfg))
	}
	if *exp == "parallel" {
		// Not part of "all": it is a hardware benchmark, not a paper figure.
		ok = true
		pCfg := experiments.DefaultParallelBenchConfig()
		if *quick {
			pCfg.NSamples = 20_000
			pCfg.Reps = 2
			pCfg.BatchRows = 8
		}
		if *seed != 0 {
			pCfg.Seed = *seed
		}
		renderOne(experiments.ParallelBench(pCfg))
	}
	if *exp == "incremental" {
		// Not part of "all" either: a rebuild-latency benchmark whose
		// snapshot is committed as BENCH_incremental.json.
		ok = true
		iCfg := experiments.DefaultIncrementalBenchConfig()
		if *quick {
			iCfg.Windows = []int{200, 800}
			iCfg.Reps = 2
			iCfg.Services = 15
		}
		if *seed != 0 {
			iCfg.Seed = *seed
		}
		renderOne(experiments.IncrementalBench(iCfg))
	}
	if *exp == "trace" {
		// Not part of "all": the distributed-tracing benchmark whose
		// snapshot is committed as BENCH_trace.json — per-hop latency
		// decomposition of one drift-chain trace plus sampling overhead.
		ok = true
		tCfg := experiments.DefaultTraceBenchConfig()
		if *quick {
			tCfg.OverheadRows = 300
			tCfg.AllocRows = 500
			tCfg.QuerySamples = 500
		}
		if *seed != 0 {
			tCfg.Seed = *seed
		}
		renderOne(experiments.TraceBench(tCfg))
	}
	if *exp == "drift" {
		// Not part of "all" either: the model-health benchmark whose
		// snapshot is committed as BENCH_drift.json — detection delay and
		// ε recovery for drift-triggered vs fixed-cadence rebuilds.
		ok = true
		dCfg := experiments.DefaultDriftBenchConfig()
		if *quick {
			dCfg.PrefixRebuilds = 3
			dCfg.PostRows = 250
			dCfg.RealSample = 1500
		}
		if *seed != 0 {
			dCfg.Seed = *seed
		}
		renderOne(experiments.DriftBench(dCfg))
	}
	if *exp == "serve" {
		// Not part of "all": the inference-gateway serving benchmark whose
		// snapshot is committed as BENCH_serve.json — cold vs warm cache
		// latency, closed-loop QPS, and the cached-result identity checks.
		ok = true
		sCfg := experiments.DefaultServeBenchConfig()
		if *quick {
			sCfg.NSamples = 4000
			sCfg.DistinctQueries = 8
			sCfg.LoadRequests = 120
			sCfg.Concurrency = 4
		}
		if *seed != 0 {
			sCfg.Seed = *seed
		}
		renderOne(experiments.ServeBench(sCfg))
	}
	if *exp == "wire" {
		// Not part of "all": the wire-codec benchmark whose snapshot is
		// committed as BENCH_wire.json — framed bytes for the three hot
		// message types under gob vs the fixed binary layout, plus per-row
		// cost and allocation counts of the codec-fed hot paths.
		ok = true
		wCfg := experiments.DefaultWireBenchConfig()
		if *quick {
			wCfg.ScoreRows = 500
			wCfg.IngestRows = 1000
			wCfg.EncodeFrames = 1000
			wCfg.NSamples = 500
			wCfg.Reps = 3
		}
		if *seed != 0 {
			wCfg.Seed = *seed
		}
		renderOne(experiments.WireBench(wCfg))
	}
	if *exp == "fleet" {
		// Not part of "all": the fleet telemetry benchmark whose snapshot is
		// committed as BENCH_fleet.json — rollup identity (fleet counters
		// bit-exact, merged-histogram quantiles within 1e-9 of a reference
		// registry fed the same observations) and the shipping overhead as a
		// fraction of the monitored ingest path.
		ok = true
		fCfg := experiments.DefaultFleetBenchConfig()
		if *quick {
			fCfg.Agents = 2
			fCfg.Rounds = 4
			fCfg.ObsPerRound = 200
			fCfg.OverheadRows = 20000
			fCfg.ShipInterval = 20 * time.Millisecond
		}
		if *seed != 0 {
			fCfg.Seed = *seed
		}
		renderOne(experiments.FleetBench(fCfg))
	}
	if *exp == "outage" {
		// Not part of "all": the durability benchmark whose snapshot is
		// committed as BENCH_outage.json — rows delivered and lost across a
		// forced server outage with and without the store-and-forward
		// journal, plus the truncation-chaos dedup exercise.
		ok = true
		oCfg := experiments.DefaultOutageBenchConfig()
		if *quick {
			oCfg.Rows = 90
			oCfg.OutageAfter = 30
			oCfg.OutageRows = 30
			oCfg.ChaosRows = 50
		}
		if *seed != 0 {
			oCfg.Seed = *seed
		}
		renderOne(experiments.OutageBench(oCfg))
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	if *metricsJSON != "" {
		// Mark the sweep scale in the snapshot so baselines are compared
		// like-for-like (quick vs full sweeps time very differently).
		if *quick {
			obs.G("bench.quick").Set(1)
		} else {
			obs.G("bench.quick").Set(0)
		}
		if err := obs.Default().DumpJSON(*metricsJSON); err != nil {
			fmt.Fprintln(os.Stderr, "metrics dump failed:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "metrics snapshot written to", *metricsJSON)
	}
}

func render(results []*experiments.FigResult, err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiment failed:", err)
		os.Exit(1)
	}
	for _, r := range results {
		if err := r.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "render failed:", err)
			os.Exit(1)
		}
	}
}

func renderOne(r *experiments.FigResult, err error) {
	render([]*experiments.FigResult{r}, err)
}
