// Command perfbench is kertbn's end-to-end benchmark. It drives the live
// KERT-BN loop in one process from a seeded generator, checks the outputs,
// and prints every metric named in BENCHMARK.json with its unit:
//
//	perfbench --workload rebuild --seed 1 --seconds 50 --trace 0
//
// Every workload runs the same system: two monitoring agents ship
// measurements over the monitor TCP transport with file-backed journals,
// the management server assembles rows into a core.Scheduler (incremental
// refit of a discrete KERT-BN, decentralized relearn, health scoring),
// each new generation is deployed to the gateway, and an HTTP client
// queries the gateway over loopback at a fixed low rate. The workloads
// differ in the schedule; NOTES.md gives the reason for each. Layers are
// timed from outside, by wrapping calls into their public functions; the
// program itself carries no benchmark code.
//
// With --trace 0 the last output line reports the end-to-end metrics.
// With --trace 1 it reports the per-layer metrics of a traced run: spans
// are kept in memory and written under .bench_out at the end, self times
// are split along the blocking paths, the CPU profile is credited per
// module, and the tracing overhead is measured by alternating traced and
// untraced slices. Earlier lines carry the host stamp and the full report.
// Journals, spans and profiles go to .bench_out in the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// config is one workload's shape plus the run's arguments.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string

	alpha, k int
	// queryRate is the offered queries/s of the query client. It is fixed,
	// so every run carries the same query load, and low enough that the
	// ingest path keeps most of the CPU; NOTES.md gives the sizing.
	queryRate float64

	setups     int     // set-ups measured per run; the last one is timed
	minGens    int     // generations the timed phase must see
	minQueries int     // queries the timed phase must answer
	poolRows   int     // distinct generated rows, cycled with fresh request ids
	bodies     int     // distinct query bodies
	identity   int     // responses re-issued after a cache flush
	slice      float64 // seconds per timed-phase slice
}

// workloadConfig returns the named workload at full size.
func workloadConfig(name string) (config, error) {
	c := config{
		workload:   name,
		setups:     3,
		queryRate:  10,
		minQueries: 200,
		poolRows:   1 << 16,
		bodies:     1 << 13,
		identity:   16,
		slice:      1,
	}
	switch name {
	case "rebuild":
		c.alpha, c.k, c.minGens = 100, 3, 100
	case "stream":
		c.alpha, c.k, c.minGens = 20000, 2, 10
	default:
		return c, fmt.Errorf("unknown workload %q (want rebuild or stream)", name)
	}
	return c, nil
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: rebuild or stream")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 50, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	)
	flag.Parse()
	cfg, err := workloadConfig(*workload)
	if err != nil {
		fatal(err)
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	cfg.seed, cfg.seconds, cfg.trace, cfg.outDir = *seed, *seconds, *trace == 1, ".bench_out"
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}
	rep, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"stamp": stampFor(cfg)}); err != nil {
		fatal(err)
	}
	if err := enc.Encode(map[string]any{"report": rep.details}); err != nil {
		fatal(err)
	}
	if err := enc.Encode(rep.result); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
