package main

import (
	"fmt"
	"net/http"
)

// pathLayer is one layer along a blocking path: its metric segment, its
// span kind, and whether its share is the span's self time (the layers
// that enclose others) or its whole time.
type pathLayer struct {
	name string
	k    kind
	self bool
}

// ingestPath and queryPath are the layers along the two blocking paths. A
// share is the layer's time over the path's end-to-end time: the wall time
// of the ingest generator's traced iterations, or of the query client's
// traced round trips without its pacing waits. Whatever no span covers
// (the generators' own work) is the path's residual.
var (
	ingestPath = []pathLayer{
		{"transport", kSend, true},
		{"sink", kSink, true},
		{"core_wait", kPush, true},
		{"health_observe", kObserve, false},
		{"core_ingest", kIngest, false},
		{"core_refit", kRefit, false},
		{"decentral_learn", kLearn, false},
		{"health_set_model", kHealthSet, false},
		{"gateway_set_model", kGatewaySet, false},
	}
	queryPath = []pathLayer{
		{"http", kQuery, true},
		{"handler", kHandler, false},
	}
)

// layerMetrics reports the traced run: each layer's counts and times, the
// self-time shares along both blocking paths with their residuals, the
// CPU profile credited per module, and the tracing overhead.
func (s *system) layerMetrics(ph *phase, lt *layerTimes) (map[string]metric, error) {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	per := func(total float64, n int) float64 { return ratio(total, float64(n)) }

	put("monitor.send_p50_s", quantile(lt.durs[kSend], 0.5), "s")
	put("transport.self_s_per_row", per(lt.self[kSend], lt.count[kSink]), "s")
	put("monitor.bytes_per_row", per(float64(ph.bytesRx), int(ph.rows)), "bytes")
	put("journal.pending_max", float64(s.pendingMax), "count")
	put("monitor.rows_dropped", float64(s.inner.Dropped), "count")
	put("core.push_s_per_row", per(lt.total[kPush], lt.count[kPush]), "s")
	put("core.wait_s_per_row", per(lt.self[kPush], lt.count[kPush]), "s")
	put("core.ingest_ns_per_row", 1e9*per(lt.total[kIngest], lt.count[kIngest]), "ns")
	put("core.refit_p50_s", quantile(lt.durs[kRefit], 0.5), "s")
	put("core.generations", float64(ph.gens), "count")
	put("decentral.learn_p50_s", quantile(lt.durs[kLearn], 0.5), "s")
	put("health.observe_ns_per_row", 1e9*per(lt.total[kObserve], lt.count[kObserve]), "ns")
	put("health.set_model_p50_s", quantile(lt.durs[kHealthSet], 0.5), "s")
	put("health.holdout_rows", float64(ph.holdout), "count")
	put("gateway.set_model_p50_s", quantile(lt.durs[kGatewaySet], 0.5), "s")
	put("gateway.handler_p50_s", quantile(lt.durs[kHandler], 0.5), "s")
	put("gateway.handler_p99_s", quantile(lt.durs[kHandler], 0.99), "s")
	for r, name := range routeNames {
		put("gateway.route."+name+".handler_p50_s", quantile(lt.routeDur[r], 0.5), "s")
	}
	put("http.overhead_s_per_query", per(lt.self[kQuery], lt.count[kQuery]), "s")

	var ok, hits, bytes, failed int
	for _, q := range ph.queries {
		if q.status != http.StatusOK {
			failed++
			continue
		}
		ok++
		bytes += q.bytes
		if q.cache == "hit" {
			hits++
		}
	}
	put("gateway.response_bytes", per(float64(bytes), ok), "bytes")
	put("gateway.cache_hit_ratio", per(float64(hits), ok), "ratio")
	put("gateway.rejected", float64(ph.rejected)+float64(failed), "count")

	shares, err := moduleShares(ph.profile)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, mod := range modules {
		put("cpu."+mod+".share", shares[mod], "ratio")
	}

	var on, off slice
	for _, sl := range ph.slices {
		p := &off
		if sl.traced {
			p = &on
		}
		p.seconds += sl.seconds
		p.rows += sl.rows
	}
	shareOf := func(prefix string, path []pathLayer, e2e float64) {
		residual := 1.0
		for _, l := range path {
			v := lt.total[l.k]
			if l.self {
				v = lt.self[l.k]
			}
			v = ratio(v, e2e)
			residual -= v
			put(prefix+l.name, v, "ratio")
		}
		put(prefix+"residual", residual, "ratio")
	}
	shareOf("share.ingest.", ingestPath, ph.ingestTraced)
	shareOf("share.query.", queryPath, ph.queryTraced)

	// The overhead is measured on the saturated path: rows on the closed
	// ingest loop.
	rate := func(sl slice) float64 { return float64(sl.rows) / sl.seconds }
	overhead := 0.0
	if on.seconds > 0 && off.seconds > 0 && rate(on) > 0 {
		overhead = rate(off)/rate(on) - 1
	}
	put("trace.overhead", overhead, "ratio")
	return m, nil
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
