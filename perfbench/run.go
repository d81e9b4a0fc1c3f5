package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"kertbn/internal/obs"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type report struct {
	result  result
	details map[string]any
}

// slice is one stretch of the timed phase, traced or not. heapMiB is the
// live heap the last garbage collection found, read at its end.
type slice struct {
	traced  bool
	seconds float64
	rows    int64
	heapMiB float64
}

// phase is what the timed phase measured.
type phase struct {
	start, end int64
	rows       int64
	gens       int64
	holdout    int64
	slices     []slice
	queries    []queryRec
	bytesRx    int64
	rejected   int64
	profile    []byte
	// ingestTraced and queryTraced are the wall seconds of the traced
	// generator iterations: the end-to-end time of each blocking path.
	ingestTraced, queryTraced float64
}

func (p *phase) seconds() float64 { return float64(p.end-p.start) / 1e9 }

// run generates the inputs, sets the program up cfg.setups times, keeps the
// last instance for the timed phase, checks its outputs and reports.
func run(cfg config) (*report, error) {
	in, err := generateInputs(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	tr := newTracer()
	var s *system
	setups := make([]float64, cfg.setups)
	for i := range setups {
		start := time.Now()
		if s, err = newSystem(cfg, in, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := s.warmUp(); err != nil {
			s.close()
			return nil, err
		}
		setups[i] = time.Since(start).Seconds()
		if i < len(setups)-1 {
			s.close()
		}
	}
	defer s.close()

	ph, err := s.measure()
	if err != nil {
		return nil, err
	}
	lost := s.drain()

	rep := &report{details: map[string]any{}}
	chk := &checks{}
	s.checkRows(chk, lost)
	s.checkGenerations(chk)
	s.checkIdentity(chk, ph)
	for _, q := range ph.queries {
		chk.attempt(q.status == http.StatusOK, fmt.Sprintf("%s query: status %d: %.200s", routeNames[q.route], q.status, q.body))
	}
	if ph.gens < int64(cfg.minGens) {
		chk.fail("timed phase saw %d generations, want at least %d", ph.gens, cfg.minGens)
	}
	if ok := okQueries(ph); len(ok) < cfg.minQueries {
		chk.fail("timed phase answered %d queries, want at least %d", len(ok), cfg.minQueries)
	}
	rep.details["checks_failed"] = chk.notes
	rep.details["timed_seconds"] = ph.seconds()
	rep.details["rows"] = ph.rows
	rep.details["generations"] = ph.gens
	rep.details["queries"] = len(ph.queries)
	rep.details["setup_s"] = setups

	var reported map[string]metric
	if cfg.trace {
		spans := tr.snapshot()
		path := filepath.Join(cfg.outDir, cfg.workload+".spans.csv.gz")
		if err := writeSpans(path, spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		if err := os.WriteFile(filepath.Join(cfg.outDir, cfg.workload+".cpu.pprof"), ph.profile, 0o644); err != nil {
			return nil, fmt.Errorf("write profile: %w", err)
		}
		rep.details["spans"] = len(spans)
		rep.details["spans_file"] = path
		reported, err = s.layerMetrics(ph, summarize(spans))
		if err != nil {
			return nil, err
		}
	} else {
		reported = s.endToEndMetrics(ph, setups)
	}
	rep.result = result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   reported,
	}
	return rep, nil
}

// measure runs the timed phase: the ingest generator and the query
// client until cfg.seconds have passed and the minimum generation and
// query counts are reached, or four times cfg.seconds at most. A traced
// run alternates traced and untraced slices and profiles the CPU.
func (s *system) measure() (*phase, error) {
	cfg := s.cfg
	ph := &phase{}
	bytesRx := obs.C("monitor.tcp.bytes_rx")
	rejected := []*obs.Counter{obs.C("gateway.rejected.rate_limited"), obs.C("gateway.rejected.overloaded"), obs.C("gateway.rejected.no_model")}
	rejected0 := int64(0)
	for _, c := range rejected {
		rejected0 += c.Value()
	}
	holdout := obs.C("sched.holdout_rows")
	bytes0, holdout0 := bytesRx.Value(), holdout.Value()
	var prof bytes.Buffer
	if cfg.trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		s.ingestLoop(stop)
	}()
	var queryTracedNs int64
	go func() {
		defer wg.Done()
		ph.queries, queryTracedNs = s.queryLoop(stop)
	}()

	ph.start = s.tr.now()
	rows0, gens0, queries0 := s.absorbed.Load(), s.publishes.Load(), s.queriesOK.Load()
	limit := 4 * cfg.seconds
	traced := cfg.trace
	heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	for {
		elapsed := float64(s.tr.now()-ph.start) / 1e9
		done := elapsed >= cfg.seconds &&
			s.publishes.Load()-gens0 >= int64(cfg.minGens) &&
			s.queriesOK.Load()-queries0 >= int64(cfg.minQueries)
		if done || elapsed >= limit {
			break
		}
		s.tr.on.Store(traced)
		sl := slice{traced: traced, rows: s.absorbed.Load()}
		t0 := s.tr.now()
		time.Sleep(time.Duration(min(cfg.slice, limit-elapsed) * float64(time.Second)))
		sl.seconds = float64(s.tr.now()-t0) / 1e9
		sl.rows = s.absorbed.Load() - sl.rows
		metrics.Read(heap)
		sl.heapMiB = float64(heap[0].Value.Uint64()) / (1 << 20)
		ph.slices = append(ph.slices, sl)
		traced = cfg.trace && !traced
	}
	s.tr.on.Store(false)
	ph.end = s.tr.now()
	ph.rows = s.absorbed.Load() - rows0
	ph.gens = s.publishes.Load() - gens0
	close(stop)
	wg.Wait()
	if cfg.trace {
		pprof.StopCPUProfile()
		ph.profile = prof.Bytes()
	}
	ph.holdout = holdout.Value() - holdout0
	ph.bytesRx = bytesRx.Value() - bytes0
	for _, c := range rejected {
		ph.rejected += c.Value()
	}
	ph.rejected -= rejected0
	ph.queryTraced = float64(queryTracedNs) / 1e9
	ph.ingestTraced = float64(s.tracedNs) / 1e9
	return ph, nil
}

// okQueries returns the round-trip times of the successful queries that
// finished inside the timed phase.
func okQueries(ph *phase) []float64 {
	var out []float64
	for _, q := range ph.queries {
		if q.status == http.StatusOK && q.end <= ph.end {
			out = append(out, q.seconds())
		}
	}
	return out
}

// within returns the durations of the intervals that ended inside the
// timed phase.
func within(ph *phase, ivs []interval) []float64 {
	var out []float64
	for _, iv := range ivs {
		if iv.end >= ph.start && iv.end <= ph.end {
			out = append(out, iv.seconds())
		}
	}
	return out
}

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// endToEndMetrics reports what a user of the system sees. heap_mb is the
// median over slices of the live heap, so it does not hang on where in a
// generation's result-cache fill the phase happened to end.
func (s *system) endToEndMetrics(ph *phase, setups []float64) map[string]metric {
	var heap []float64
	for _, sl := range ph.slices {
		heap = append(heap, sl.heapMiB)
	}
	s.mu.Lock()
	pubs := within(ph, s.pubs)
	s.mu.Unlock()
	sends := within(ph, s.sends)
	q := okQueries(ph)
	secs := ph.seconds()
	return map[string]metric{
		"setup_s":           {quantile(setups, 0.5), "s"},
		"heap_mb":           {quantile(heap, 0.5), "MiB"},
		"ingest_rows_per_s": {float64(ph.rows) / secs, "rows/s"},
		"flush_p99_s":       {quantile(sends, 0.99), "s"},
		"publish_p50_s":     {quantile(pubs, 0.5), "s"},
		"publish_p90_s":     {quantile(pubs, 0.9), "s"},
		"queries_per_s":     {float64(len(q)) / secs, "q/s"},
		"query_p50_s":       {quantile(q, 0.5), "s"},
		"query_p99_s":       {quantile(q, 0.99), "s"},
	}
}
