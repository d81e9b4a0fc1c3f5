package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// tiny shrinks a workload so a run takes a few seconds.
func tiny(t *testing.T, name string, trace bool) config {
	t.Helper()
	cfg, err := workloadConfig(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg.seed, cfg.seconds, cfg.trace, cfg.outDir = 7, 0.5, trace, t.TempDir()
	cfg.setups, cfg.poolRows, cfg.bodies, cfg.identity, cfg.slice = 2, 2000, 64, 4, 0.1
	cfg.alpha = min(cfg.alpha, 40)
	cfg.minGens, cfg.minQueries = 1, 2
	return cfg
}

// declared returns BENCHMARK.json's end-to-end or per-layer metric units
// by name.
func declared(t *testing.T, perLayer bool) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	list := doc.EndToEnd
	if perLayer {
		list = doc.PerLayer
	}
	out := map[string]string{}
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out
}

// TestSmoke runs every workload at a tiny size, traced and untraced, and
// requires every check to pass and exactly the declared metrics, with
// their units, to be reported.
func TestSmoke(t *testing.T) {
	for _, name := range []string{"rebuild", "stream"} {
		for _, trace := range []bool{false, true} {
			cfg := tiny(t, name, trace)
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			r := rep.result
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					name, trace, r.Correct, r.Attempted, r.Failed, rep.details["checks_failed"])
			}
			want := declared(t, trace)
			var missing, extra []string
			for n, unit := range want {
				if got, ok := r.Metrics[n]; !ok || got.Unit != unit {
					missing = append(missing, n)
				}
			}
			for n := range r.Metrics {
				if _, ok := want[n]; !ok {
					extra = append(extra, n)
				}
			}
			sort.Strings(missing)
			sort.Strings(extra)
			if len(missing)+len(extra) > 0 {
				t.Errorf("%s trace=%v: metrics missing or with the wrong unit %v, undeclared %v", name, trace, missing, extra)
			}
			if trace {
				// The CPU profile was read: module shares cover every sample.
				sum := 0.0
				for _, m := range modules {
					sum += r.Metrics["cpu."+m+".share"].Value
				}
				if sum < 0.999 || sum > 1.001 {
					t.Errorf("%s: CPU module shares sum to %v, want 1", name, sum)
				}
			}
		}
	}
}
