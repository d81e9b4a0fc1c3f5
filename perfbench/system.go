package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kertbn/internal/core"
	"kertbn/internal/dataset"
	"kertbn/internal/decentral"
	"kertbn/internal/gateway"
	"kertbn/internal/health"
	"kertbn/internal/journal"
	"kertbn/internal/learn"
	"kertbn/internal/monitor"
	"kertbn/internal/obs"
	"kertbn/internal/workflow"
)

// agentColumns splits kertmon's four hosts over two agents: the first
// owns linux-server and aix-local, the second aix-remote and the edge
// probe that measures D (column 6).
var agentColumns = [][]int{
	{workflow.EDImageList, workflow.EDWorkList, workflow.EDImageLocatorLocal, workflow.EDOgsaDaiLocal},
	{workflow.EDImageLocatorRemote, workflow.EDOgsaDaiRemote, len(workflow.EDiaMoNDServiceNames)},
}

// spanHeader carries a traced query's span id to the handler wrapper.
const spanHeader = "X-Perfbench-Span"

// interval is one timed call, in tracer nanoseconds.
type interval struct{ start, end int64 }

func (iv interval) seconds() float64 { return float64(iv.end-iv.start) / 1e9 }

// queryRec is one client round trip.
type queryRec struct {
	interval
	route  int
	status int
	bytes  int
	cache  string
	body   []byte
}

// system is one constructed instance of the program under test plus the
// harness state around it.
type system struct {
	cfg config
	in  *inputs
	tr  *tracer
	dir string

	gw       *gateway.Server
	httpSrv  *http.Server
	httpDone chan struct{}
	baseURL  string
	client   *http.Client
	buf      bytes.Buffer // the query client's reused response buffer

	sched    *core.Scheduler
	inner    *monitor.Server
	tcp      *monitor.TCPServer
	journals []*journal.Journal
	senders  []*monitor.TCPSender
	agents   []*monitor.Agent
	points   []*monitor.Point // by column

	// Generator state, owned by the one ingest goroutine. ingestTraced
	// marks a traced iteration; tracedNs sums their wall time.
	ingestTraced bool
	tracedNs     int64
	nextReq      int64
	sent         int64
	fpSent       uint64
	sends        []interval
	sendErrs     int64
	pendingMax   int

	// Sink-side state; sinks can run on either connection's goroutine.
	mu         sync.Mutex
	fpAbsorbed uint64
	pubs       []interval
	absorbed   atomic.Int64
	holdout    atomic.Int64
	ingested   atomic.Int64
	publishes  atomic.Int64
	sinkErrs   atomic.Int64

	queriesOK atomic.Int64
}

// newSystem constructs the program: gateway and its HTTP listener, the
// scheduler with its builder and health policy, the management server,
// and two journaled agents.
func newSystem(cfg config, in *inputs, tr *tracer) (s *system, err error) {
	s = &system{cfg: cfg, in: in, tr: tr}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.dir, err = os.MkdirTemp(cfg.outDir, "journal-"); err != nil {
		return s, err
	}

	s.gw = gateway.New(nil, gateway.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return s, err
	}
	s.baseURL = "http://" + ln.Addr().String()
	s.httpSrv = &http.Server{Handler: s.wrapHandler(s.gw.Handler())}
	s.httpDone = make(chan struct{})
	go func() {
		defer close(s.httpDone)
		_ = s.httpSrv.Serve(ln)
	}()
	s.client = &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}

	wf := workflow.EDiaMoND()
	cols := core.ColumnNames(workflow.EDiaMoNDServiceNames, nil)
	kcfg := core.DefaultKERTConfig(wf)
	kcfg.Type, kcfg.Bins, kcfg.Leak = core.DiscreteModel, 6, 0.02
	scfg := core.ScheduleConfig{TData: 20 * time.Second, Alpha: cfg.alpha, K: cfg.k}
	ik, err := core.NewIncrementalKERT(kcfg, scfg.WindowPoints())
	if err != nil {
		return s, err
	}
	if s.sched, err = core.NewSchedulerIncremental(scfg, &timedBuilder{s: s, ik: ik}); err != nil {
		return s, err
	}
	if err := s.sched.SetHealthPolicy(&timedHealth{s: s, mon: health.NewMonitor(health.Config{Seed: cfg.seed})}, false); err != nil {
		return s, err
	}

	if s.inner, err = monitor.NewServerCtx(len(cols), s.sink); err != nil {
		return s, err
	}
	if s.tcp, err = monitor.ListenTCPOpts("127.0.0.1:0", s.inner, monitor.ServerOptions{}); err != nil {
		return s, err
	}
	s.points = make([]*monitor.Point, len(cols))
	for i, columns := range agentColumns {
		j, err := journal.Open(journal.Options{Path: filepath.Join(s.dir, fmt.Sprintf("agent-%d.wal", i))})
		if err != nil {
			return s, err
		}
		s.journals = append(s.journals, j)
		sender, err := monitor.DialTCPOpts(s.tcp.Addr(), monitor.SenderOptions{Journal: j, AgentKey: uint64(i + 1)})
		if err != nil {
			return s, err
		}
		s.senders = append(s.senders, sender)
		agent, err := monitor.NewAgent(fmt.Sprintf("agent-%d", i), 25, &timedSender{s: s, inner: sender, j: j})
		if err != nil {
			return s, err
		}
		s.agents = append(s.agents, agent)
		for _, c := range columns {
			s.points[c] = agent.NewPoint(c)
		}
	}
	return s, nil
}

// close tears the instance down; it is safe on a partly built one.
func (s *system) close() {
	if s.httpSrv != nil {
		s.httpSrv.Close()
		<-s.httpDone
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	for _, snd := range s.senders {
		snd.Close()
	}
	if s.tcp != nil {
		s.tcp.Close()
	}
	for _, j := range s.journals {
		j.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// warmUp pushes rows through the whole pipeline until the window is full
// and a generation is deployed, drains the agents, and compiles each
// route's query plan with one query.
func (s *system) warmUp() error {
	window := s.cfg.alpha * s.cfg.k
	limit := int64(4*window + 10000)
	for s.sched.WindowLen() < window || s.gw.Generation() < 1 {
		if s.nextReq >= limit {
			return fmt.Errorf("warm-up: no steady state after %d rows", s.nextReq)
		}
		s.observeOne()
	}
	if lost := s.drain(); lost != 0 {
		return fmt.Errorf("warm-up: %d rows not absorbed", lost)
	}
	for _, b := range s.in.warm {
		if rec := s.doQuery(b, false, false); rec.status != http.StatusOK {
			return fmt.Errorf("warm-up %s query: status %d: %s", routeNames[b.route], rec.status, rec.body)
		}
	}
	return nil
}

// observeOne reports one generated request: every column of the row, in
// column order, through the owning agent's monitoring point. Agents ship
// when their batch fills, so some calls block on a durable send.
func (s *system) observeOne() {
	row := s.in.rows[s.nextReq%int64(len(s.in.rows))]
	id := s.nextReq
	s.nextReq++
	for c, p := range s.points {
		p.Observe(id, row[c])
	}
	s.sent++
	s.fpSent += rowHash(row)
}

// drain ships the agents' partial batches and waits until every sent row
// has been absorbed, returning how many were not.
func (s *system) drain() int64 {
	for _, a := range s.agents {
		if err := a.Flush(); err != nil {
			s.sendErrs++
		}
	}
	s.inner.WaitComplete(int(s.sent), 30*time.Second)
	return s.sent - s.absorbed.Load()
}

// ingestLoop is the ingest generator, a closed loop: each durable Send
// waits for the manager's ack.
func (s *system) ingestLoop(stop <-chan struct{}) {
	p := newPacer(0)
	last := s.tr.now()
	for p.wait(stop) {
		s.ingestTraced = s.tr.on.Load()
		s.observeOne()
		now := s.tr.now()
		if s.ingestTraced {
			s.tracedNs += now - last
		}
		last = now
	}
	s.ingestTraced = false
}

// queryLoop is the query client over distinct bodies, paced at
// cfg.queryRate. It returns its round trips and the wall time of its
// traced iterations, pacing waits excluded.
func (s *system) queryLoop(stop <-chan struct{}) (recs []queryRec, tracedNs int64) {
	p := newPacer(s.cfg.queryRate)
	for i := 0; p.wait(stop); i++ {
		traced := s.tr.on.Load()
		start := s.tr.now()
		recs = append(recs, s.doQuery(s.in.bodies[i%len(s.in.bodies)], traced, false))
		if traced {
			tracedNs += s.tr.now() - start
		}
	}
	return recs, tracedNs
}

// pacer paces a loop at a rate, or not at all for rate 0. A late loop
// catches up, so the offered rate holds while the system keeps up.
type pacer struct {
	every time.Duration
	next  time.Time
}

func newPacer(rate float64) *pacer {
	p := &pacer{next: time.Now()}
	if rate > 0 {
		p.every = time.Duration(float64(time.Second) / rate)
	}
	return p
}

// wait blocks until the next iteration is due and reports false once
// stop is closed.
func (p *pacer) wait(stop <-chan struct{}) bool {
	if p.every == 0 {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}
	t := time.NewTimer(time.Until(p.next))
	defer t.Stop()
	p.next = p.next.Add(p.every)
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}

// doQuery posts one body and reads the whole response into the client's
// reused buffer, so the harness adds little garbage next to
// the gateway's. The body is kept when keep is set or the query failed.
func (s *system) doQuery(b queryBody, traced, keep bool) queryRec {
	tok := s.tr.beginRoot(kQuery, traced)
	rec := queryRec{route: b.route}
	req, err := http.NewRequest(http.MethodPost, s.baseURL+"/v1/query/"+routeNames[b.route], bytes.NewReader(b.body))
	if err != nil {
		rec.body = []byte(err.Error())
		return rec
	}
	req.Header.Set("Content-Type", "application/json")
	if tok.id != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(int(tok.id)))
	}
	buf := &s.buf
	buf.Reset()
	rec.start = s.tr.now()
	resp, err := s.client.Do(req)
	if err == nil {
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		rec.status = resp.StatusCode
		rec.cache = resp.Header.Get("X-Kertbn-Cache")
	}
	rec.end = s.tr.now()
	s.tr.end(tok, b.route)
	switch {
	case err != nil:
		rec.status, rec.body = 0, []byte(err.Error())
	case keep || rec.status != http.StatusOK:
		rec.body = bytes.Clone(buf.Bytes())
	}
	rec.bytes = buf.Len()
	if rec.status == http.StatusOK {
		s.queriesOK.Add(1)
	}
	return rec
}

// wrapHandler times the gateway handler, linking traced requests to their
// client span.
func (s *system) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var tok token
		if id, err := strconv.Atoi(r.Header.Get(spanHeader)); err == nil {
			tok = s.tr.beginUnder(kHandler, int32(id))
		}
		h.ServeHTTP(w, r)
		route := -1
		for i, name := range routeNames {
			if strings.TrimPrefix(r.URL.Path, "/v1/query/") == name {
				route = i
			}
		}
		s.tr.end(tok, route)
	})
}

// sink is the management server's row sink: kertmon's, timed. It pushes
// the row into the scheduler and deploys every new generation to the
// gateway. A publish runs from the sink receiving the row that closes a
// construction interval to gateway.SetModel returning.
func (s *system) sink(row []float64, tc obs.TraceContext) {
	tok := s.tr.begin(kSink)
	start := s.tr.now()
	ptok := s.tr.begin(kPush)
	m, err := s.sched.PushCtx(row, tc)
	s.tr.end(ptok, -1)
	if err != nil {
		s.sinkErrs.Add(1)
	}
	if m != nil {
		gtok := s.tr.begin(kGatewaySet)
		s.gw.SetModel(m)
		s.tr.end(gtok, -1)
		end := s.tr.now()
		s.publishes.Add(1)
		s.mu.Lock()
		s.pubs = append(s.pubs, interval{start, end})
		s.mu.Unlock()
	}
	h := rowHash(row)
	s.mu.Lock()
	s.fpAbsorbed += h
	s.mu.Unlock()
	s.absorbed.Add(1)
	s.tr.end(tok, -1)
}

// rowHash is the 64-bit FNV-1a hash of a row's little-endian float bits,
// computed inline so fingerprinting allocates nothing. Rows are
// fingerprinted as the sum of their hashes, which ignores order and
// counts repeats.
func rowHash(row []float64) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, v := range row {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h ^= bits >> (8 * i) & 0xff
			h *= prime64
		}
	}
	return h
}

// timedSender wraps an agent's durable TCP sender.
type timedSender struct {
	s     *system
	inner *monitor.TCPSender
	j     *journal.Journal
}

func (t *timedSender) Send(r monitor.Report) error {
	s := t.s
	tok := s.tr.beginRoot(kSend, s.ingestTraced)
	start := s.tr.now()
	err := t.inner.Send(r)
	end := s.tr.now()
	s.tr.end(tok, -1)
	s.sends = append(s.sends, interval{start, end})
	if err != nil {
		s.sendErrs++
	}
	if p := t.j.Pending(); p > s.pendingMax {
		s.pendingMax = p
	}
	return err
}

// timedHealth wraps the health monitor, observe-only.
type timedHealth struct {
	s   *system
	mon *health.Monitor
}

func (h *timedHealth) SetModel(m *core.Model) error {
	tok := h.s.tr.begin(kHealthSet)
	defer h.s.tr.end(tok, -1)
	return h.mon.SetModel(m)
}

func (h *timedHealth) ObserveCtx(row []float64, tc obs.TraceContext) (bool, error) {
	tok := h.s.tr.begin(kObserve)
	holdout, err := h.mon.ObserveCtx(row, tc)
	h.s.tr.end(tok, -1)
	if holdout {
		h.s.holdout.Add(1)
	}
	return holdout, err
}

func (h *timedHealth) ConsumeAlarm() bool { return h.mon.ConsumeAlarm() }

// timedBuilder is kertmon's incremental builder, timed: a refit from the
// sufficient statistics, then the decentralized relearn of the service
// CPDs over the window.
type timedBuilder struct {
	s  *system
	ik *core.IncrementalKERT
}

func (b *timedBuilder) Ingest(row []float64) error {
	tok := b.s.tr.begin(kIngest)
	err := b.ik.Ingest(row)
	b.s.tr.end(tok, -1)
	b.s.ingested.Add(1)
	return err
}

func (b *timedBuilder) Len() int { return b.ik.Len() }

func (b *timedBuilder) Build() (*core.Model, error) {
	tok := b.s.tr.begin(kRefit)
	m, err := b.ik.Build()
	b.s.tr.end(tok, -1)
	if err != nil {
		return nil, err
	}
	tok = b.s.tr.begin(kLearn)
	defer b.s.tr.end(tok, -1)
	return m, relearn(m, b.ik.Snapshot())
}

// relearn is kertmon's decentralized relearn without fault injection: one
// in-process learner per service CPD over the encoded window, installed
// into the model.
func relearn(m *core.Model, w *dataset.Dataset) error {
	enc, err := m.Codec.Encode(w)
	if err != nil {
		return err
	}
	plans, err := decentral.PlanFromNetwork(m.Net, map[int]bool{m.DNode: true})
	if err != nil {
		return err
	}
	cols := make(decentral.Columns, enc.NumCols())
	for j := range cols {
		cols[j] = enc.Col(j)
	}
	res, err := decentral.LearnRobust(context.Background(), plans, cols, decentral.InProcShipper{},
		learn.DefaultOptions(), decentral.RobustOptions{Workers: len(plans)})
	if err != nil {
		return err
	}
	if err := decentral.Install(m.Net, res); err != nil {
		return err
	}
	m.InvalidatePlans()
	return nil
}
