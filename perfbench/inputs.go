package main

import (
	"encoding/json"
	"fmt"

	"kertbn/internal/simsvc"
	"kertbn/internal/stats"
	"kertbn/internal/workflow"
)

// routeNames are the gateway query routes the query client round-robins.
var routeNames = []string{"posterior", "dcomp", "paccel", "threshold"}

// queryBody is one prepared request.
type queryBody struct {
	route int
	body  []byte
}

// inputs is everything a run feeds the program, generated from the seed
// before any timing starts.
type inputs struct {
	// rows are eDiaMoND requests from kertmon's discrete-event simulation:
	// six service elapsed times, then the end-to-end response time D. The
	// generator cycles through them with fresh request ids.
	rows [][]float64
	// bodies are distinct query bodies, so every timed query misses the
	// result cache; warm holds one more body per route for set-up.
	bodies []queryBody
	warm   []queryBody
}

func generateInputs(cfg config) (*inputs, error) {
	root := stats.NewRNG(cfg.seed)
	rows, err := simulate(cfg.poolRows, root.Split(1))
	if err != nil {
		return nil, err
	}
	in := &inputs{rows: rows}
	rng := root.Split(2)
	for i := 0; i < cfg.bodies+len(routeNames); i++ {
		b, err := makeBody(i%len(routeNames), rows[rng.Intn(len(rows))], rng)
		if err != nil {
			return nil, err
		}
		if i < cfg.bodies {
			in.bodies = append(in.bodies, b)
		} else {
			in.warm = append(in.warm, b)
		}
	}
	return in, nil
}

// simulate runs kertmon's default discrete-event simulation of the
// eDiaMoND testbed for n requests.
func simulate(n int, rng *stats.RNG) ([][]float64, error) {
	means := []float64{0.08, 0.12, 0.10, 0.22, 0.35, 0.45}
	stations := make([]simsvc.StationConfig, len(means))
	for i, m := range means {
		stations[i] = simsvc.StationConfig{Concurrency: 2, Service: simsvc.DelayDist{Kind: simsvc.DistExponential, A: 1 / m}}
	}
	des, err := simsvc.NewDES(workflow.EDiaMoND(), simsvc.DESConfig{
		ArrivalRate:    1.5,
		Stations:       stations,
		HopDelay:       simsvc.DelayDist{Kind: simsvc.DistUniform, A: 0.001, B: 0.004},
		WarmupRequests: 50,
	}, rng)
	if err != nil {
		return nil, err
	}
	records, err := des.Run(n)
	if err != nil {
		return nil, err
	}
	rows := make([][]float64, len(records))
	for i, rec := range records {
		rows[i] = append(append(make([]float64, 0, len(rec.Elapsed)+1), rec.Elapsed...), rec.ResponseTime())
	}
	return rows, nil
}

// makeBody builds one query for route r around a simulated request row:
// each value is the row's own measurement scaled by a random factor in
// [0.5, 1.5), so bodies are distinct.
func makeBody(r int, row []float64, rng *stats.RNG) (queryBody, error) {
	names := workflow.EDiaMoNDServiceNames
	svc := rng.Intn(len(names))
	other := (svc + 1 + rng.Intn(len(names)-1)) % len(names)
	scale := func(v float64) float64 { return v * (0.5 + rng.Float64()) }
	d := row[len(row)-1]
	var v map[string]any
	switch routeNames[r] {
	case "posterior":
		v = map[string]any{"target": "D", "evidence": map[string]float64{names[svc]: scale(row[svc])}}
	case "dcomp":
		v = map[string]any{"target": names[svc], "observed": map[string]float64{"D": scale(d), names[other]: scale(row[other])}}
	case "paccel":
		v = map[string]any{"service": names[svc], "predicted_mean": scale(row[svc])}
	case "threshold":
		v = map[string]any{"service": names[svc], "predicted_mean": scale(row[svc]),
			"thresholds": []float64{0.5 * d, d, 2 * d}}
	default:
		return queryBody{}, fmt.Errorf("no body for route %d", r)
	}
	b, err := json.Marshal(v)
	return queryBody{route: r, body: b}, err
}
