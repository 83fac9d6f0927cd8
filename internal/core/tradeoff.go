package core

import (
	"qosres/internal/qrg"
)

// Tradeoff is the basic algorithm extended with the "QoS - success rate"
// trade-off policy of section 4.3.1. Let s0 be the sink representing the
// highest reachable end-to-end QoS, with bottleneck contention index
// ψ_s0 and bottleneck availability change index α_s0:
//
//   - if α_s0 >= 1 (availability trend up or unchanged), s0 is selected
//     exactly as in the basic algorithm;
//   - if α_s0 < 1 (trend down), the policy instead selects the highest
//     ranked sink s with ψ_s <= α_s0 · ψ_s0, lowering the bottleneck
//     contention by the ratio 1-α_s0.
//
// The paper leaves the empty case unspecified; when no reachable sink
// satisfies the inequality, this implementation falls back to the
// reachable sink with the smallest ψ (best rank on ties), the closest
// admissible interpretation of "lower the bottleneck contention".
type Tradeoff struct{}

// Name implements Planner.
func (Tradeoff) Name() string { return "tradeoff" }

// Plan implements Planner.
func (Tradeoff) Plan(g *qrg.Graph) (*Plan, error) {
	if !g.Chain {
		// The tradeoff policy composes with the DAG heuristic by applying
		// the same sink-selection rule to the two-pass results.
		return planDAG(g, chooseTradeoffSink)
	}
	s := maxPlusDijkstra(g)
	defer s.release()
	sinks := reachableSinks(g, s)
	if len(sinks) == 0 {
		return nil, ErrInfeasible
	}
	chosen := chooseTradeoffSink(sinks)
	nodes, edges := s.backtrack(chosen.sink.Node)
	p, err := planFromPath(g, nodes, edges)
	if err != nil {
		return nil, err
	}
	p.Alpha = chosen.alpha
	return p, nil
}

// chooseTradeoffSink applies the section 4.3.1 policy to the reachable
// sinks (ordered best-rank-first).
func chooseTradeoffSink(sinks []sinkSummary) sinkSummary {
	s0 := sinks[0]
	if s0.alpha >= 1.0 {
		return s0
	}
	budget := s0.alpha * s0.psi
	for _, s := range sinks {
		if s.psi <= budget {
			return s
		}
	}
	// Fallback: no sink fits the contention budget; take the least
	// contended reachable sink (first in rank order on ψ ties).
	best := sinks[0]
	for _, s := range sinks[1:] {
		if s.psi < best.psi {
			best = s
		}
	}
	return best
}
