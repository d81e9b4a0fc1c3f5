package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// kind names one layer boundary the harness wraps.
type kind uint8

const (
	kSend       kind = iota // monitor.Sender.Send: one agent batch until the ack
	kSink                   // monitor.RowSinkCtx: one assembled row
	kPush                   // core.Scheduler.PushCtx
	kObserve                // core.HealthPolicy.ObserveCtx
	kIngest                 // core.IncrementalBuilder.Ingest
	kRefit                  // core.IncrementalBuilder.Build, without the relearn
	kLearn                  // decentral relearn of the new generation
	kHealthSet              // core.HealthPolicy.SetModel
	kGatewaySet             // gateway.(*Server).SetModel
	kQuery                  // client round trip over loopback HTTP
	kHandler                // the http.Handler of gateway.(*Server).Handler
	nKinds
)

var kindNames = [nKinds]string{
	"monitor.send", "monitor.sink", "core.push", "health.observe", "core.ingest",
	"core.refit", "decentral.learn", "health.set_model", "gateway.set_model",
	"client.query", "gateway.handler",
}

// parentKind is the layer whose span encloses each kind's span; roots
// (sends and queries) have none.
var parentKind = [nKinds]kind{
	kSink: kSend, kPush: kSink, kObserve: kPush, kIngest: kPush, kRefit: kPush,
	kLearn: kPush, kHealthSet: kPush, kGatewaySet: kSink, kHandler: kQuery,
	kSend: nKinds, kQuery: nKinds,
}

// span is one timed call. Times are nanoseconds since the tracer's epoch.
type span struct {
	id, parent int32
	kind       kind
	route      int8
	start, end int64
}

// tracer keeps the traced run's spans in memory. Generators record their
// root spans only in iterations that start while on is set; a child is
// recorded only when its enclosing span was, so every recorded tree is
// whole. The ingest path has one generator goroutine and durable sends
// wait for their ack, so at most one send, sink and push are open at a
// time and open[k] names the open span of kind k. Query spans link to
// their handler span through a request header.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	next  atomic.Int32
	open  [nKinds + 1]atomic.Int32 // open[nKinds] stays 0

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// token is an open span; the zero token is an unrecorded one.
type token struct {
	id, parent int32
	kind       kind
	start      int64
}

// beginRoot opens a send or query span when its generator iteration is
// traced; generators sample on once per iteration, so a traced iteration's
// roots are all recorded.
func (t *tracer) beginRoot(k kind, traced bool) token {
	if !traced {
		return token{}
	}
	return t.beginUnder(k, 0)
}

// begin opens a span of kind k under the open span of its parent kind.
// It returns the zero token when the parent is not being recorded.
func (t *tracer) begin(k kind) token {
	parent := t.open[parentKind[k]].Load()
	if parent == 0 {
		return token{}
	}
	return t.beginUnder(k, parent)
}

// beginUnder opens a span of kind k under an explicit parent id.
func (t *tracer) beginUnder(k kind, parent int32) token {
	tok := token{id: t.next.Add(1), parent: parent, kind: k, start: t.now()}
	if k == kSend || k == kSink || k == kPush {
		t.open[k].Store(tok.id)
	}
	return tok
}

// end closes a span opened by begin; route tags query and handler spans.
func (t *tracer) end(tok token, route int) {
	if tok.id == 0 {
		return
	}
	if k := tok.kind; k == kSend || k == kSink || k == kPush {
		t.open[k].Store(0)
	}
	s := span{id: tok.id, parent: tok.parent, kind: tok.kind, route: int8(route), start: tok.start, end: t.now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes the spans as gzip'd CSV, one span a line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id,parent,name,route,start_ns,end_ns")
	for _, s := range spans {
		route := ""
		if s.route >= 0 && (s.kind == kQuery || s.kind == kHandler) {
			route = routeNames[s.route]
		}
		fmt.Fprintf(bw, "%d,%d,%s,%s,%d,%d\n", s.id, s.parent, kindNames[s.kind], route, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes is the traced run's per-kind summary: count, total duration,
// self time (duration minus the time of the spans it encloses) and the
// durations themselves for quantiles, with handler durations also kept
// per route.
type layerTimes struct {
	count    [nKinds]int
	total    [nKinds]float64
	self     [nKinds]float64
	durs     [nKinds][]float64
	routeDur [][]float64
}

func summarize(spans []span) *layerTimes {
	lt := &layerTimes{routeDur: make([][]float64, len(routeNames))}
	children := map[int32]float64{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] += float64(s.end-s.start) / 1e9
		}
	}
	for _, s := range spans {
		d := float64(s.end-s.start) / 1e9
		lt.count[s.kind]++
		lt.total[s.kind] += d
		lt.self[s.kind] += d - children[s.id]
		lt.durs[s.kind] = append(lt.durs[s.kind], d)
		if s.kind == kHandler && s.route >= 0 {
			lt.routeDur[s.route] = append(lt.routeDur[s.route], d)
		}
	}
	return lt
}
