// Package adapt implements the mid-session QoS adaptation loop: a
// controller that watches the brokers' utilization, read wait-free off
// their published records, against a watermark policy with a
// hysteresis band, and renegotiates live sessions through
// proxy.Runtime.
//
// The loop provably cannot flap or stampede:
//
//   - Hysteresis: brownout downgrades run only above the high
//     watermark, upgrades only below the low watermark; the band
//     between them absorbs oscillation (ticks there do nothing and
//     count as held).
//   - Per-session cooldown: a session renegotiated (or even attempted)
//     at tick t is untouchable until t + Cooldown, so a square-wave
//     load bounds each session's renegotiation count by duration /
//     Cooldown regardless of tick rate.
//   - Tick budget: at most MaxActionsPerTick renegotiations per tick,
//     so a mass watermark crossing ramps gradually instead of
//     stampeding the admission path.
//
// Brownout victim ordering follows Ψ-weighted priority: lowest
// end-to-end rank first (least criticality), highest plan Ψ first
// within a rank (largest contention share), so the sessions costing
// the most contention at the least QoS value brown out first.
package adapt

import (
	"context"
	"sort"
	"sync"

	"qosres/internal/broker"
	"qosres/internal/obs"
	"qosres/internal/proxy"
)

// MaxActionsPerTick bounds the renegotiations one tick attempts.
const MaxActionsPerTick = 4

// FloorRank is the rank below which adaptation never downgrades a
// session: the worst ranked level, so adaptation may brown a session
// out but never terminate it.
const FloorRank = 1

// Policy is the watermark/hysteresis configuration of a Controller.
type Policy struct {
	// HighWater is the utilization (1 - available/capacity) at or above
	// which a resource counts as hot and brownout downgrades run.
	HighWater float64
	// LowWater is the utilization below which (on every watched
	// resource) upgrade renegotiations may run. The band between the
	// watermarks is the hysteresis dead zone: no action either way.
	LowWater float64
	// Cooldown is the minimum time between renegotiation attempts on
	// one session. Attempts count even when they fail, so a refused
	// upgrade cannot be retried into a stampede.
	Cooldown broker.Time
}

// DefaultPolicy is a conservative starting point: brown out above 85%
// utilization, upgrade below 55%.
func DefaultPolicy() Policy {
	return Policy{HighWater: 0.85, LowWater: 0.55}
}

// withDefaults fills unset fields.
func (p Policy) withDefaults() Policy {
	d := DefaultPolicy()
	if p.HighWater <= 0 {
		p.HighWater = d.HighWater
	}
	if p.LowWater <= 0 {
		p.LowWater = d.LowWater
	}
	if p.LowWater > p.HighWater {
		p.LowWater = p.HighWater
	}
	return p
}

// Action records one renegotiation the controller attempted on a tick.
type Action struct {
	Session  *proxy.Session
	Level    string
	FromRank int
	ToRank   int
	// Err is the renegotiation outcome; nil means the session now runs
	// at Level.
	Err error
}

// Controller drives mid-session adaptation over one runtime. Ticks are
// externally paced — a wall-clock ticker in qosserved, the driver loop
// in the chaos harness — so simulated and real deployments share the
// control law.
type Controller struct {
	rt      *proxy.Runtime
	brokers []broker.Broker

	mu      sync.Mutex
	policy  Policy
	metrics *obs.AdaptMetrics
	// last remembers each session's most recent renegotiation attempt
	// for the cooldown; entries of dead sessions are pruned every tick.
	last map[*proxy.Session]broker.Time
}

// New builds a controller watching the given brokers' published
// signals. The policy is normalized via defaults.
func New(rt *proxy.Runtime, policy Policy, brokers []broker.Broker) *Controller {
	return &Controller{
		rt:      rt,
		brokers: brokers,
		policy:  policy.withDefaults(),
		metrics: &obs.AdaptMetrics{},
		last:    make(map[*proxy.Session]broker.Time),
	}
}

// Instrument attaches adaptation counters; nil detaches them.
func (c *Controller) Instrument(m *obs.AdaptMetrics) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m == nil {
		m = &obs.AdaptMetrics{}
	}
	c.metrics = m
}

// candidate is one live session with the plan fields the ordering and
// floor checks need, snapshotted once per tick.
type candidate struct {
	s     *proxy.Session
	rank  int
	psi   float64
	path  string
	top   int // best rank the session's service defines
	level string
}

// Tick runs one control round at now: read the broker signals, decide
// hot / cool / in-band, and renegotiate up to the tick budget's worth
// of sessions, respecting per-session cooldowns and the rank floor.
// Returns the attempted actions (empty on held ticks).
func (c *Controller) Tick(ctx context.Context, now broker.Time) []Action {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.policy
	m := c.metrics

	// Signals: wait-free utilization reads.
	hot := make(map[string]bool)
	maxUtil := 0.0
	for _, b := range c.brokers {
		cap := b.Capacity()
		if cap <= 0 {
			continue
		}
		util := 1 - b.Available()/cap
		if util > maxUtil {
			maxUtil = util
		}
		if util >= p.HighWater {
			hot[b.Resource()] = true
		}
	}

	// Prune cooldown entries of sessions that no longer exist.
	for s := range c.last {
		if s.State() != proxy.StateActive {
			delete(c.last, s)
		}
	}

	switch {
	case len(hot) > 0:
		return c.brownout(ctx, now, p, m, hot)
	case maxUtil < p.LowWater:
		return c.upgrade(ctx, now, p, m)
	default:
		// Inside the hysteresis band: hold everything.
		m.Held.Inc()
		return nil
	}
}

// snapshot gathers the live sessions as ordered candidates.
func (c *Controller) snapshot() []candidate {
	var out []candidate
	for _, s := range c.rt.SessionList() {
		if s.State() != proxy.StateActive {
			continue
		}
		plan := s.CurrentPlan()
		if plan == nil {
			continue
		}
		out = append(out, candidate{
			s:     s,
			rank:  plan.Rank,
			psi:   plan.Psi,
			path:  plan.PathLevels,
			top:   len(s.Service().EndToEndRanking),
			level: plan.EndToEnd.Name,
		})
	}
	return out
}

// brownout downgrades victims touching a hot resource, one rank each,
// by Ψ-weighted priority: lowest rank first, highest Ψ within a rank.
func (c *Controller) brownout(ctx context.Context, now broker.Time, p Policy, m *obs.AdaptMetrics, hot map[string]bool) []Action {
	var victims []candidate
	for _, cand := range c.snapshot() {
		if cand.rank-1 < FloorRank {
			continue // already at (or below) the floor: never push further
		}
		touchesHot := false
		for _, r := range cand.s.Touches() {
			if hot[r] {
				touchesHot = true
				break
			}
		}
		if touchesHot {
			victims = append(victims, cand)
		}
	}
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].rank != victims[j].rank {
			return victims[i].rank < victims[j].rank
		}
		if victims[i].psi != victims[j].psi {
			return victims[i].psi > victims[j].psi
		}
		return victims[i].path < victims[j].path
	})
	return c.act(ctx, now, p, m, victims, -1)
}

// upgrade promotes sessions running below their service's best level,
// most-degraded first.
func (c *Controller) upgrade(ctx context.Context, now broker.Time, p Policy, m *obs.AdaptMetrics) []Action {
	var cands []candidate
	for _, cand := range c.snapshot() {
		if cand.rank < cand.top {
			cands = append(cands, cand)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].rank != cands[j].rank {
			return cands[i].rank < cands[j].rank
		}
		return cands[i].path < cands[j].path
	})
	return c.act(ctx, now, p, m, cands, +1)
}

// act renegotiates the ordered candidates by step ranks (+1 upgrade,
// -1 downgrade) under the cooldown and the tick budget. Attempts stamp
// the cooldown whether they succeed or not. Callers hold c.mu.
func (c *Controller) act(ctx context.Context, now broker.Time, p Policy, m *obs.AdaptMetrics, cands []candidate, step int) []Action {
	var actions []Action
	for _, cand := range cands {
		if len(actions) >= MaxActionsPerTick {
			m.FlapsSuppressed.Inc()
			continue
		}
		if t, ok := c.last[cand.s]; ok && now-t < p.Cooldown {
			m.FlapsSuppressed.Inc()
			continue
		}
		target := cand.rank + step
		level := proxy.LevelAt(cand.s.Service(), target)
		if level == "" {
			continue
		}
		c.last[cand.s] = now
		err := c.rt.Renegotiate(ctx, cand.s, level)
		actions = append(actions, Action{
			Session:  cand.s,
			Level:    level,
			FromRank: cand.rank,
			ToRank:   target,
			Err:      err,
		})
	}
	m.DeliveredQoSSeconds.Set(c.rt.DeliveredQoSSeconds())
	return actions
}
