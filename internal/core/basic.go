package core

import (
	"qosres/internal/qrg"
)

// Basic is the paper's basic runtime algorithm (section 4.1): compute the
// max-plus shortest paths over the QRG, pick the highest-ranked reachable
// sink (the highest possible end-to-end QoS under the current
// availability), and return the path to it — the feasible reservation
// plan requiring the lowest percentage of bottleneck resource(s).
//
// For services whose dependency graph is a DAG rather than a chain, Basic
// transparently delegates to the TwoPass heuristic of section 4.3.2.
type Basic struct {
	// NoTieBreak disables the section 4.1.2 predecessor tie-break rule,
	// for ablation studies.
	NoTieBreak bool
}

// Name implements Planner.
func (Basic) Name() string { return "basic" }

// Plan implements Planner.
func (b Basic) Plan(g *qrg.Graph) (*Plan, error) {
	if !g.Chain {
		return (TwoPass{}).Plan(g)
	}
	s := maxPlusDijkstraOpt(g, b.NoTieBreak)
	defer s.release()
	for _, sink := range g.Sinks {
		if !s.reachable(sink.Node) {
			continue
		}
		nodes, edges := s.backtrack(sink.Node)
		p, err := planFromPath(g, nodes, edges)
		if err != nil {
			return nil, err
		}
		if be, ok := s.bottleneckEdge(edges); ok {
			p.Alpha = be.Alpha
		}
		return p, nil
	}
	return nil, ErrInfeasible
}

// sinkSummary describes one reachable sink after a max-plus Dijkstra run:
// the value associated with the sink node (ψ of the bottleneck resource
// on the shortest path) and the α of that bottleneck resource, the two
// quantities the tradeoff policy consumes.
type sinkSummary struct {
	sink  qrg.Sink
	psi   float64
	alpha float64
}

// reachableSinks lists the reachable sinks best-rank-first with their ψ
// and bottleneck α.
func reachableSinks(g *qrg.Graph, s *shortest) []sinkSummary {
	var out []sinkSummary
	for _, sink := range g.Sinks {
		if !s.reachable(sink.Node) {
			continue
		}
		_, edges := s.backtrack(sink.Node)
		sum := sinkSummary{sink: sink, psi: s.dist[sink.Node], alpha: 1}
		if be, ok := s.bottleneckEdge(edges); ok {
			sum.alpha = be.Alpha
		}
		out = append(out, sum)
	}
	return out
}
