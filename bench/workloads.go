package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"qosres/internal/broker"
	"qosres/internal/core"
	"qosres/internal/obs"
	"qosres/internal/proxy"
	"qosres/internal/sim"
	"qosres/internal/topo"
	"qosres/internal/trace"
	"qosres/internal/wal"
)

const (
	corpusSize      = 1024 // offers drawn from the figure-10 mix
	warmupDecisions = 1000 // admissions before the first measured window
	minWindows      = 100  // a quiet decile needs at least this many
	holdSteps       = 200  // steps served_contended keeps an admitted session
	leaseSeconds    = 600  // as the daemon's -lease: no expiry inside a run
)

// alphaSettle is the settling time of every deployment on the wall
// clock. The brokers average their availability reports over a window
// of 3 time units, which a served deployment maps to 3 s, and feeding
// the window costs time in proportion to the samples it holds: a fresh
// inproc_hot deployment admits 17k sessions/s, then slows over its
// first 3 s to the 6.5k/s it sustains. Measuring inside that transient
// made identical runs differ by 2.6x.
const alphaSettle = 3500 * time.Millisecond

// workload is one system under test plus the operations driven at it.
// The driver sets it up several times (setup_s is the median), measures
// windows on the last set-up, and finishes with the correctness checks.
type workload interface {
	// setup brings the system up and warms it.
	setup() error
	// discard tears a set-up down again without checking anything.
	discard()
	// settleFor is how long the system must keep running after set-up
	// before its speed is steady; those windows are not measured and not
	// counted in setup_s. A workload whose outcomes depend on how many
	// operations came before names an exact window count instead.
	settleFor() (d time.Duration, windows int)
	// window runs one fixed-operation-count window; rec is nil in the
	// gated run.
	window(rec *recorder) (window, error)
	// mallocs is the cumulative Go malloc count of the system under test.
	mallocs() (uint64, error)
	// finish runs the end-of-run checks, reports the peak RSS of the
	// system under test, and tears down.
	finish() (rssMB float64, err error)
	// counts reports operations attempted and failed so far; a refusal
	// is an outcome, not a failure.
	counts() (attempted, failed int)
}

// selfMallocs is the malloc count of the harness process, the system
// under test of the in-process workloads.
func selfMallocs() (uint64, error) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, nil
}

func selfPeakRSSMB() (float64, error) { return peakRSSMB(os.Getpid()) }

// ---------------------------------------------------------------- served

// servedBase is what the two daemon workloads share: the subprocess, its
// WAL directory, the corpus and the drain check.
type servedBase struct {
	env    *runEnv
	d      *daemon
	corpus []*offer
	// idle is the availability every resource reports before the first
	// admission; finish compares the drained books against it.
	idle      map[string]float64
	attempted int
	failed    int
	lastErr   string
}

func (b *servedBase) start(recoverWAL bool) (*conn, error) {
	d, err := startDaemon(b.env.bin, b.env.walDir(), filepath.Join(b.env.runDir, "daemon.log"), recoverWAL)
	if err != nil {
		return nil, err
	}
	b.d = d
	c := newConn(d.base)
	if b.corpus, err = fetchCorpus(c, corpusSize); err != nil {
		return nil, err
	}
	b.idle = map[string]float64{}
	for _, o := range b.corpus {
		for r, a := range o.avail {
			b.idle[r] = a
		}
	}
	return c, nil
}

func (b *servedBase) settleFor() (time.Duration, int) { return alphaSettle, 0 }

func (b *servedBase) stop() {
	b.d.kill()
	b.d = nil
	b.env.wipeWAL()
}

// absorb moves the connections' failure counts into the workload's, and
// gives up on a run that keeps failing.
func (b *servedBase) absorb(cs ...*conn) error {
	for _, c := range cs {
		b.failed += c.failed
		if c.lastErr != "" {
			b.lastErr = c.lastErr
		}
		c.failed, c.lastErr = 0, ""
	}
	if b.failed > 50 {
		return fmt.Errorf("giving up after %d failed operations, last: %s", b.failed, b.lastErr)
	}
	return nil
}

// drained checks from outside that every hold was returned: the
// availability the daemon now advertises equals the idle one.
func (b *servedBase) drained(c *conn) error {
	now, err := availability(c, 256)
	if err != nil {
		return err
	}
	for r, want := range b.idle {
		got, ok := now[r]
		if !ok {
			continue
		}
		if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
			return fmt.Errorf("books not drained: %s has %.9g available, %.9g when idle", r, got, want)
		}
	}
	return nil
}

// servedMix is the front door as shipped: qosserved with its WAL on, two
// keep-alive connections, closed loop establish→teardown over the
// figure-10 corpus.
type servedMix struct {
	servedBase
	conns []*conn
	nConn int
	order []int // seeded visiting order of the corpus
	pos   int   // cycles issued so far
}

const mixWindowCycles = 200

// newServedMix drives the daemon from nConn connections: two in the
// workload, one in the traced run's budget pass, where queueing behind
// the other client must not be read as front-end time.
func newServedMix(env *runEnv, nConn int) *servedMix {
	return &servedMix{servedBase: servedBase{env: env}, nConn: nConn}
}

func (w *servedMix) setup() error {
	c, err := w.start(false)
	if err != nil {
		return err
	}
	w.conns = []*conn{c}
	for len(w.conns) < w.nConn {
		w.conns = append(w.conns, newConn(w.d.base))
	}
	w.order = rand.New(rand.NewSource(w.env.seed)).Perm(corpusSize)
	w.pos = 0
	for done := 0; done < warmupDecisions; done += mixWindowCycles {
		if _, err := w.window(nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *servedMix) discard() {
	for _, c := range w.conns {
		c.close()
	}
	w.stop()
}

func (w *servedMix) window(rec *recorder) (window, error) {
	per := mixWindowCycles / len(w.conns)
	parts := make([]window, len(w.conns))
	var wg sync.WaitGroup
	begin := time.Now()
	for ci, c := range w.conns {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			part := &parts[ci]
			part.latMs = make([]float64, 0, per)
			for j := 0; j < per; j++ {
				// Client ci takes every len(conns)-th position, so which
				// client sends which offer does not depend on timing.
				n := w.pos + j*len(w.conns) + ci
				o := w.corpus[w.order[n%len(w.order)]]
				root := rec.start("cycle", 0, int64(n))
				sp := rec.start("http.establish", root, int64(n))
				t0 := time.Now()
				a, ok, _ := c.establish(o)
				part.latMs = append(part.latMs, ms(time.Since(t0)))
				rec.end(sp)
				part.decisions++
				if ok {
					part.admitted++
					part.rankSum += a.Rank
					sp = rec.start("http.teardown", root, int64(n))
					c.simple("teardown", a.ID)
					rec.end(sp)
				}
				rec.end(root)
			}
		}(ci, c)
	}
	wg.Wait()
	out := window{dur: time.Since(begin)}
	for _, p := range parts {
		out.decisions += p.decisions
		out.admitted += p.admitted
		out.rankSum += p.rankSum
		out.latMs = append(out.latMs, p.latMs...)
	}
	w.pos += mixWindowCycles
	w.attempted += out.decisions + out.admitted // every admission is also torn down
	return out, w.absorb(w.conns...)
}

func (w *servedMix) mallocs() (uint64, error) {
	m, err := w.conns[0].memStats()
	return m.Mallocs, err
}

func (w *servedMix) counts() (int, int) { return w.attempted, w.failed }

func (w *servedMix) finish() (float64, error) {
	defer w.discard()
	rss, err := peakRSSMB(w.d.pid())
	if err != nil {
		return 0, err
	}
	if err := w.drained(w.conns[0]); err != nil {
		return rss, err
	}
	if w.failed > 0 {
		return rss, fmt.Errorf("served_mix: %d failed operations, last: %s", w.failed, w.lastErr)
	}
	return rss, nil
}

// step is one entry of served_contended's operation schedule. It names
// inputs only (which offer, which fraction of the ring to heartbeat), so
// the schedule does not depend on what the daemon answered.
type step struct {
	offer  int
	hbPick uint32
}

// scheduler yields served_contended's schedule: every pass visits each
// offer of the corpus once, in an order reshuffled per pass.
type scheduler struct {
	rng  *rand.Rand
	n    int
	perm []int
	at   int
}

func newScheduler(seed int64, corpusLen int) *scheduler {
	return &scheduler{rng: rand.New(rand.NewSource(seed)), n: corpusLen}
}

func (s *scheduler) next() step {
	if s.at == len(s.perm) {
		s.perm = s.rng.Perm(s.n)
		s.at = 0
	}
	st := step{offer: s.perm[s.at], hbPick: s.rng.Uint32()}
	s.at++
	return st
}

type liveSession struct {
	id      string
	offer   *offer
	level   string
	expires int // step at which it is torn down
}

// servedContended drives the daemon from one connection with a
// deterministic mix of establish, teardown, heartbeat and renegotiate
// around a ring of live sessions, so refusals, downgrades and lease
// renewals sit beside plain admissions, and ends with a crash check.
type servedContended struct {
	servedBase
	c     *conn
	sched *scheduler
	ring  []liveSession
	steps int
	// Filled by finish for the traced run's per-layer metrics.
	replayMs, recoverMs float64
	replayRecords       int
	infeasible, refused int // 409 bodies by cause
}

const (
	contendedWindowSteps = 100
	// contendedSettleWindows stands in for alphaSettle: what a step
	// decides depends on every step before it, so the measured prefix must
	// start at the same step in every run. 50 windows take ≈4.3 s here and
	// would still cover the 3 s on a host 40% faster.
	contendedSettleWindows = 50
)

func (w *servedContended) settleFor() (time.Duration, int) { return 0, contendedSettleWindows }

func newServedContended(env *runEnv) *servedContended {
	return &servedContended{servedBase: servedBase{env: env}}
}

func (w *servedContended) setup() error {
	c, err := w.start(false)
	if err != nil {
		return err
	}
	w.c = c
	w.sched = newScheduler(w.env.seed, corpusSize)
	w.ring = w.ring[:0]
	w.steps = 0
	for done := 0; done < warmupDecisions; done += contendedWindowSteps {
		if _, err := w.window(nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *servedContended) discard() {
	w.c.close()
	w.stop()
}

func (w *servedContended) window(rec *recorder) (window, error) {
	out := window{latMs: make([]float64, 0, contendedWindowSteps)}
	ops := 0
	begin := time.Now()
	for j := 0; j < contendedWindowSteps; j++ {
		st := w.sched.next()
		n := int64(w.steps)
		w.steps++
		o := w.corpus[st.offer]
		root := rec.start("step", 0, n)
		sp := rec.start("http.establish", root, n)
		t0 := time.Now()
		a, ok, refusal := w.c.establish(o)
		out.latMs = append(out.latMs, ms(time.Since(t0)))
		rec.end(sp)
		out.decisions++
		ops++
		if ok {
			out.admitted++
			out.rankSum += a.Rank
			w.ring = append(w.ring, liveSession{id: a.ID, offer: o, level: a.Level, expires: w.steps + holdSteps})
		} else if refusal != "" {
			w.classify(refusal)
		}
		// A fixed holding time, as in the paper's sessions: a full book
		// refuses, the ring thins, and admissions resume.
		if len(w.ring) > 0 && w.ring[0].expires <= w.steps {
			sp = rec.start("http.teardown", root, n)
			w.c.simple("teardown", w.ring[0].id)
			rec.end(sp)
			w.ring = w.ring[1:]
			ops++
		}
		if w.steps%4 == 0 && len(w.ring) > 0 {
			sp = rec.start("http.heartbeat", root, n)
			w.c.simple("heartbeat", w.ring[int(st.hbPick)%len(w.ring)].id)
			rec.end(sp)
			ops++
		}
		if w.steps%8 == 0 && len(w.ring) > 0 {
			newest := &w.ring[len(w.ring)-1]
			if i := newest.offer.rankIndex(newest.level); i >= 0 && i+1 < len(newest.offer.ranking) {
				sp = rec.start("http.renegotiate", root, n)
				if lvl, ok := w.c.renegotiate(newest.id, newest.offer.ranking[i+1]); ok {
					newest.level = lvl
				}
				rec.end(sp)
				ops++
			}
		}
		rec.end(root)
	}
	out.dur = time.Since(begin)
	w.attempted += ops
	return out, w.absorb(w.c)
}

// classify sorts a 409 body by the layer that refused: the planner found
// no feasible plan, or the brokers refused the plan at commit.
func (w *servedContended) classify(body string) {
	switch {
	case strings.Contains(body, core.ErrInfeasible.Error()):
		w.infeasible++
	case strings.Contains(body, broker.ErrInsufficient.Error()):
		w.refused++
	}
}

func (w *servedContended) mallocs() (uint64, error) {
	m, err := w.c.memStats()
	return m.Mallocs, err
}

func (w *servedContended) counts() (int, int) { return w.attempted, w.failed }

// finish is the crash check: with the ring live, SIGKILL the daemon,
// count the log from outside, restart on the same WAL with -recover, and
// require the daemon to have replayed exactly that many records, the log
// to have no torn tail, and an admission to succeed afterwards.
func (w *servedContended) finish() (float64, error) {
	defer w.discard()
	rss, err := peakRSSMB(w.d.pid())
	if err != nil {
		return 0, err
	}
	live := len(w.ring)
	w.c.close()
	w.d.kill()
	w.d = nil

	t0 := time.Now()
	records, torn, err := wal.Replay(w.env.walDir())
	w.replayMs = ms(time.Since(t0))
	w.replayRecords = len(records)
	if err != nil {
		return rss, fmt.Errorf("crash check: replay from outside: %w", err)
	}
	if torn {
		return rss, errors.New("crash check: log has a torn tail although no request was in flight")
	}

	d, err := startDaemon(w.env.bin, w.env.walDir(), filepath.Join(w.env.runDir, "daemon.log"), true)
	if err != nil {
		return rss, fmt.Errorf("crash check: restart: %w", err)
	}
	w.d = d
	w.recoverMs = d.bootMs
	w.c = newConn(d.base)
	ctr, err := w.c.counters()
	if err != nil {
		return rss, err
	}
	if got := int(ctr["qosres_wal_replay_records_total"]); got != len(records) {
		return rss, fmt.Errorf("crash check: daemon replayed %d records, the log holds %d", got, len(records))
	}
	admittedAfter := false
	for i := 0; i < 32 && !admittedAfter; i++ {
		_, admittedAfter, _ = w.c.establish(w.corpus[w.sched.next().offer])
		w.attempted++
	}
	if err := w.absorb(w.c); err != nil {
		return rss, err
	}
	if !admittedAfter {
		return rss, fmt.Errorf("crash check: no admission succeeded after recovery with %d sessions live", live)
	}
	if w.failed > 0 {
		return rss, fmt.Errorf("served_contended: %d failed operations, last: %s", w.failed, w.lastErr)
	}
	return rss, nil
}

// ---------------------------------------------------------------- in-process

// inprocHot is protocol, fabric and books at maximum contention: one hot
// spec, built once, established and released by two goroutines against
// an in-process deployment with no WAL, codec or HTTP.
type inprocHot struct {
	env       *runEnv
	se        *sim.ServedEnv
	main      topo.HostID
	spec      proxy.SessionSpec
	reg       *obs.Registry // set by the traced run to read admission counters
	attempted int
	failed    int
	lastErr   error
}

const (
	hotClients      = 2
	hotWindowCycles = 600
)

func newInprocHot(env *runEnv) *inprocHot { return &inprocHot{env: env} }

func (w *inprocHot) setup() error {
	se, err := sim.NewServedEnv(sim.ServedOptions{Seed: deploymentSeed, LeaseTTL: leaseSeconds, Registry: w.reg})
	if err != nil {
		return err
	}
	w.se = se
	// The hot spec is the deployment's first offer whatever --seed is:
	// this workload has no random input, and a per-seed spec would put
	// the services' different sizes into the timing spread.
	hot, err := se.SampleSession()
	if err != nil {
		return err
	}
	service, binding, _, err := hot.Doc.Build()
	if err != nil {
		return err
	}
	w.main = hot.MainHost
	w.spec = proxy.SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}}
	for done := 0; done < warmupDecisions; done += hotWindowCycles {
		if _, err := w.window(nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *inprocHot) discard() {
	if w.se != nil {
		_ = w.se.Close() // no WAL to flush; Close only stops the proxies
		w.se = nil
	}
}

func (w *inprocHot) window(rec *recorder) (window, error) {
	per := hotWindowCycles / hotClients
	parts := make([]window, hotClients)
	errs := make([]error, hotClients)
	failed := make([]int, hotClients)
	rt := w.se.Runtime()
	var wg sync.WaitGroup
	begin := time.Now()
	for g := 0; g < hotClients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			part := &parts[g]
			part.latMs = make([]float64, 0, per)
			for j := 0; j < per; j++ {
				n := int64(g*per + j)
				root := rec.start("cycle", 0, n)
				sp := rec.start("proxy.establish", root, n)
				t0 := time.Now()
				s, err := rt.EstablishContext(context.Background(), w.main, w.spec)
				part.latMs = append(part.latMs, ms(time.Since(t0)))
				rec.end(sp)
				part.decisions++
				switch {
				case err == nil:
					part.admitted++
					part.rankSum += s.Plan.Rank
					sp = rec.start("proxy.release", root, n)
					if err := s.Release(); err != nil {
						failed[g]++
						errs[g] = err
					}
					rec.end(sp)
				case errors.Is(err, core.ErrInfeasible), errors.Is(err, broker.ErrInsufficient):
					// refused: an outcome
				default:
					failed[g]++
					errs[g] = err
				}
				rec.end(root)
			}
		}(g)
	}
	wg.Wait()
	out := window{dur: time.Since(begin)}
	for g, p := range parts {
		out.decisions += p.decisions
		out.admitted += p.admitted
		out.rankSum += p.rankSum
		out.latMs = append(out.latMs, p.latMs...)
		w.failed += failed[g]
		if errs[g] != nil {
			w.lastErr = errs[g]
		}
	}
	w.attempted += out.decisions + out.admitted
	if w.failed > 50 {
		return out, fmt.Errorf("inproc_hot: giving up after %d failed operations, last: %v", w.failed, w.lastErr)
	}
	return out, nil
}

func (w *inprocHot) settleFor() (time.Duration, int) { return alphaSettle, 0 }
func (w *inprocHot) mallocs() (uint64, error)        { return selfMallocs() }
func (w *inprocHot) counts() (int, int)              { return w.attempted, w.failed }

func (w *inprocHot) finish() (float64, error) {
	defer w.discard()
	rss, err := selfPeakRSSMB()
	if err != nil {
		return 0, err
	}
	if live := w.se.Runtime().LiveSessions(); live != 0 {
		return rss, fmt.Errorf("inproc_hot: %d sessions still live at the end", live)
	}
	if w.failed > 0 {
		return rss, fmt.Errorf("inproc_hot: %d failed operations, last: %v", w.failed, w.lastErr)
	}
	return rss, nil
}

// ---------------------------------------------------------------- simulator

// simFig11 is the paper's experiment: the discrete-event simulator with
// the tradeoff planner at 120 sessions per 60 TU, one run per window,
// broker + qrg + core with no proxy, fabric, WAL or HTTP. Its success
// and QoS are on the virtual clock.
type simFig11 struct {
	env       *runEnv
	order     []int // seeded visiting order of the environment family
	pos       int
	attempted int
}

const (
	// simFamily is the number of simulated environments a run averages
	// over, one per window; --seed sets the order. One environment's
	// success rate is anywhere in 0.69..0.97 (capacities are drawn from
	// the sim seed), so the outcome metrics are taken over exactly one
	// pass of the family and are the same whatever the order.
	simFamily   = minWindows
	simRate     = 120
	simDuration = 3600
)

func newSimFig11(env *runEnv) *simFig11 { return &simFig11{env: env} }

func (w *simFig11) setup() error {
	w.order = rand.New(rand.NewSource(w.env.seed)).Perm(simFamily)
	w.pos = 0
	// One throw-away run: page in the code and grow the heap.
	tr := &simTimer{}
	_, err := runSim(int64(simFamily+1), tr)
	return err
}

func (w *simFig11) discard() {}

// settleFor is zero: the simulator runs on its virtual clock, where the
// window holds the same few samples from the first arrival on.
func (w *simFig11) settleFor() (time.Duration, int) { return 0, 0 }

// simTimer is the harness's sim.Config.Tracer: it stamps the wall time
// between an arrival and its outcome, and tallies outcomes.
type simTimer struct {
	rec      *recorder
	root     int
	open     int
	t0       time.Time
	latMs    []float64
	admitted int
	rankSum  int
}

func (t *simTimer) Trace(ev trace.Event) {
	switch ev.Kind {
	case trace.Arrival:
		t.open = t.rec.start("sim.admission", t.root, int64(ev.Session))
		t.t0 = time.Now()
	case trace.Reserved, trace.PlanFailed, trace.ReserveFailed:
		t.latMs = append(t.latMs, ms(time.Since(t.t0)))
		t.rec.end(t.open)
		if ev.Kind == trace.Reserved {
			t.admitted++
			t.rankSum += ev.Rank
		}
	}
}

func runSim(seed int64, tr *simTimer) (*sim.Result, error) {
	cfg := sim.DefaultConfig(sim.AlgTradeoff, simRate, seed)
	cfg.Duration = simDuration
	cfg.Tracer = tr
	return sim.Run(cfg)
}

func (w *simFig11) window(rec *recorder) (window, error) {
	seed := int64(1 + w.order[w.pos%simFamily])
	w.pos++
	tr := &simTimer{rec: rec, latMs: make([]float64, 0, 8192)}
	tr.root = rec.start("sim.run", 0, seed)
	begin := time.Now()
	res, err := runSim(seed, tr)
	dur := time.Since(begin)
	rec.end(tr.root)
	if err != nil {
		return window{}, err
	}
	// Exact drain: the run releases every session it admitted.
	for _, b := range res.Pool.LocalBrokers() {
		if n := b.Reservations(); n != 0 {
			return window{}, fmt.Errorf("sim_fig11: seed %d left %d reservations on %s", seed, n, b.Resource())
		}
	}
	w.attempted += len(tr.latMs)
	return window{dur: dur, decisions: len(tr.latMs), latMs: tr.latMs, admitted: tr.admitted, rankSum: tr.rankSum}, nil
}

func (w *simFig11) mallocs() (uint64, error) { return selfMallocs() }
func (w *simFig11) counts() (int, int)       { return w.attempted, 0 }
func (w *simFig11) finish() (float64, error) { return selfPeakRSSMB() }
