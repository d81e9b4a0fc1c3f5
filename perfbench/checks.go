package main

import (
	"bytes"
	"fmt"
	"net/http"
)

// checks counts operations and failures. Lost rows, non-200 responses and
// failed checks each count as a failure.
type checks struct {
	attempted, failed int64
	notes             []string
}

func (c *checks) attempt(ok bool, note string) {
	c.attempted++
	if !ok {
		c.failed++
		if note != "" {
			c.notes = append(c.notes, note)
		}
	}
}

func (c *checks) fail(format string, args ...any) {
	c.attempt(false, fmt.Sprintf(format, args...))
}

// checkRows requires every sent row to be absorbed by the scheduler
// exactly once: the counts match, nothing was evicted from the join
// buffer, and the order-independent fingerprints of sent and absorbed rows
// agree. Each row is an attempt; lost rows are failures.
func (s *system) checkRows(c *checks, lost int64) {
	c.attempted += s.sent
	if lost > 0 {
		c.failed += lost
		c.notes = append(c.notes, fmt.Sprintf("%d of %d rows lost (%d evicted incomplete)", lost, s.sent, s.inner.Dropped))
	}
	s.mu.Lock()
	fp := s.fpAbsorbed
	s.mu.Unlock()
	absorbed := s.absorbed.Load()
	c.attempt(absorbed == s.sent, fmt.Sprintf("absorbed %d rows, sent %d", absorbed, s.sent))
	c.attempt(fp == s.fpSent, fmt.Sprintf("absorbed-row fingerprint %016x, sent %016x", fp, s.fpSent))
	c.attempt(s.inner.Dropped == 0, fmt.Sprintf("%d rows evicted from the join buffer", s.inner.Dropped))
	c.attempt(s.sendErrs == 0, fmt.Sprintf("%d agent sends failed", s.sendErrs))
	c.attempt(s.sinkErrs.Load() == 0, fmt.Sprintf("%d scheduler pushes failed", s.sinkErrs.Load()))
}

// checkGenerations requires one generation per α rows that entered the
// training window (absorbed rows minus the health monitor's holdout), and
// every one of them deployed to the gateway; the builder ingested exactly
// the training rows.
func (s *system) checkGenerations(c *checks) {
	trained := s.absorbed.Load() - s.holdout.Load()
	want := trained / int64(s.cfg.alpha)
	got := int64(s.sched.Rebuilds())
	c.attempt(got == want, fmt.Sprintf("scheduler built %d generations from %d training rows, want %d", got, trained, want))
	c.attempt(s.publishes.Load() == got && int64(s.gw.Generation()) == got,
		fmt.Sprintf("%d publishes, gateway generation %d, scheduler %d", s.publishes.Load(), s.gw.Generation(), got))
	c.attempt(s.ingested.Load() == trained, fmt.Sprintf("builder ingested %d rows, want %d", s.ingested.Load(), trained))
}

// checkIdentity re-issues a sample of distinct timed-phase query bodies
// against the final generation after a result-cache flush, flushes again,
// issues them once more, and requires both executions to be fresh and
// byte-identical.
func (s *system) checkIdentity(c *checks, ph *phase) {
	n := min(len(ph.queries), len(s.in.bodies))
	if n == 0 {
		c.fail("no queries to re-issue")
		return
	}
	k := min(s.cfg.identity, n)
	first := make([]queryRec, 0, k)
	bodies := make([]queryBody, 0, k)
	s.gw.FlushResultCache()
	for i := 0; i < k; i++ {
		b := s.in.bodies[i*n/k]
		bodies = append(bodies, b)
		first = append(first, s.doQuery(b, false, true))
	}
	s.gw.FlushResultCache()
	for i, b := range bodies {
		again := s.doQuery(b, false, true)
		ok := first[i].status == http.StatusOK && again.status == http.StatusOK &&
			first[i].cache == "miss" && again.cache == "miss" && bytes.Equal(first[i].body, again.body)
		c.attempt(ok, fmt.Sprintf("%s body %d: status %d/%d cache %q/%q, responses differ after a cache flush",
			routeNames[b.route], i, first[i].status, again.status, first[i].cache, again.cache))
	}
}
