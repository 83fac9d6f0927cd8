package core

import (
	"qosres/internal/qrg"
)

// AtLevel plans the service at exactly one named end-to-end level — no
// policy choice, no fallback. It is the planning half of mid-session
// renegotiation: the adaptation layer decides the target level (one
// rank up or down from the session's current one) and needs the cheapest
// feasible plan at that level or a clean ErrInfeasible, never a plan at
// some other level the tradeoff policy would prefer. The struct is
// comparable, so renegotiation plans share the runtime's plan memo with
// ordinary admissions.
type AtLevel struct {
	// Level is the required end-to-end level name.
	Level string
}

// Name implements Planner.
func (p AtLevel) Name() string { return "atlevel:" + p.Level }

// Plan implements Planner.
func (p AtLevel) Plan(g *qrg.Graph) (*Plan, error) {
	choose := func(sinks []sinkSummary) sinkSummary {
		for _, s := range sinks {
			if g.Nodes[s.sink.Node].Level.Name == p.Level {
				return s
			}
		}
		// The callback cannot signal infeasibility; return any sink and
		// let Plan reject the mismatch below.
		return sinks[0]
	}
	if !g.Chain {
		plan, err := planDAG(g, choose)
		if err != nil {
			return nil, err
		}
		if plan.EndToEnd.Name != p.Level {
			return nil, ErrInfeasible
		}
		return plan, nil
	}
	s := maxPlusDijkstra(g)
	defer s.release()
	for _, sum := range reachableSinks(g, s) {
		if g.Nodes[sum.sink.Node].Level.Name != p.Level {
			continue
		}
		nodes, edges := s.backtrack(sum.sink.Node)
		plan, err := planFromPath(g, nodes, edges)
		if err != nil {
			return nil, err
		}
		plan.Alpha = sum.alpha
		return plan, nil
	}
	return nil, ErrInfeasible
}
