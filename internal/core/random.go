package core

import (
	"fmt"
	"math/rand"

	"qosres/internal/qrg"
)

// Random is the contention-unaware comparison algorithm of section 5: it
// is QoS-aware (it still targets the highest reachable end-to-end QoS
// level) but, instead of the max-plus shortest path, it selects a
// uniformly random feasible path leading to that level.
//
// Uniformity is exact: paths are counted by dynamic programming over the
// QRG (a DAG) and the path is sampled backward with probabilities
// proportional to the path counts.
type Random struct {
	// RNG supplies randomness; it must be non-nil.
	RNG *rand.Rand
}

// NewRandom builds a Random planner from a seed.
func NewRandom(seed int64) *Random {
	return &Random{RNG: rand.New(rand.NewSource(seed))}
}

// Name implements Planner.
func (*Random) Name() string { return "random" }

// Plan implements Planner.
func (r *Random) Plan(g *qrg.Graph) (*Plan, error) {
	if r.RNG == nil {
		return nil, fmt.Errorf("core: Random planner has no RNG")
	}
	if !g.Chain {
		return nil, fmt.Errorf("core: Random planner supports chain services only, service %s is a DAG", g.Service.Name)
	}
	counts := pathCounts(g)
	for _, sink := range g.Sinks {
		if counts[sink.Node] == 0 {
			continue
		}
		nodes, edges := samplePath(g, counts, sink.Node, r.RNG)
		return planFromPath(g, nodes, edges)
	}
	return nil, ErrInfeasible
}

// pathCounts returns, for every node, the number of distinct
// source-to-node paths. Node IDs are created in topological order by the
// QRG builder, so a single increasing sweep suffices. Counts are float64:
// they stay tiny for realistic QRGs and degrade gracefully (to
// approximately-uniform sampling) if a pathological graph overflows
// integer range.
func pathCounts(g *qrg.Graph) []float64 {
	counts := make([]float64, len(g.Nodes))
	counts[g.Source] = 1
	for v := range g.Nodes {
		if counts[v] == 0 {
			continue
		}
		for _, eid := range g.OutEdges[v] {
			counts[g.Edges[eid].To] += counts[v]
		}
	}
	return counts
}

// samplePath walks backward from sink to source choosing each incoming
// edge with probability proportional to the predecessor's path count,
// which yields a uniform distribution over all source-to-sink paths.
func samplePath(g *qrg.Graph, counts []float64, sink int, rng *rand.Rand) (nodes []int, edges []int) {
	cur := sink
	for cur != g.Source {
		nodes = append(nodes, cur)
		total := 0.0
		for _, eid := range g.InEdges[cur] {
			total += counts[g.Edges[eid].From]
		}
		pick := rng.Float64() * total
		chosen := -1
		for _, eid := range g.InEdges[cur] {
			c := counts[g.Edges[eid].From]
			if c == 0 {
				continue
			}
			pick -= c
			chosen = eid
			if pick <= 0 {
				break
			}
		}
		edges = append(edges, chosen)
		cur = g.Edges[chosen].From
	}
	nodes = append(nodes, g.Source)
	reverseInts(nodes)
	reverseInts(edges)
	return nodes, edges
}
