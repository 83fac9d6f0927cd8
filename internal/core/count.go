package core

import (
	"sort"

	"qosres/internal/qrg"
	"qosres/internal/svc"
)

// PlanCount summarizes the feasible reservation plans a QRG admits at
// one end-to-end QoS level.
type PlanCount struct {
	Level string
	Rank  int
	// Plans is the number of distinct feasible plans reaching the level:
	// source-to-sink paths for chain services, embedded graphs for DAG
	// services.
	Plans float64
}

// FeasiblePlanCounts counts, per end-to-end QoS level (best first), how
// many feasible reservation plans the QRG admits — the population the
// algorithm's "selected from multiple feasible reservation plans" claim
// quantifies over. Chain services count paths by dynamic programming;
// DAG services count embedded graphs by enumeration (exponential; small
// services only).
func FeasiblePlanCounts(g *qrg.Graph) []PlanCount {
	if g.Chain {
		return chainPlanCounts(g)
	}
	return dagPlanCounts(g)
}

func chainPlanCounts(g *qrg.Graph) []PlanCount {
	counts := pathCounts(g)
	out := make([]PlanCount, 0, len(g.Sinks))
	for _, s := range g.Sinks {
		out = append(out, PlanCount{
			Level: g.Nodes[s.Node].Level.Name,
			Rank:  s.Rank,
			Plans: counts[s.Node],
		})
	}
	return out
}

func dagPlanCounts(g *qrg.Graph) []PlanCount {
	order, err := g.Service.TopoOrder()
	if err != nil {
		return nil
	}
	byLevel := map[string]float64{}
	selOut := make(map[svc.ComponentID]int, len(order))

	var recurse func(i int)
	recurse = func(i int) {
		if i == len(order) {
			sinkOut := selOut[order[len(order)-1]]
			byLevel[g.Nodes[sinkOut].Level.Name]++
			return
		}
		cid := order[i]
		in := embeddedInNode(g, cid, selOut)
		if in < 0 {
			return
		}
		seen := map[int]bool{}
		for _, eid := range g.OutEdges[in] {
			e := g.Edges[eid]
			if e.Kind != qrg.Translation || seen[e.To] {
				continue
			}
			seen[e.To] = true
			selOut[cid] = e.To
			recurse(i + 1)
		}
		delete(selOut, cid)
	}
	recurse(0)

	out := make([]PlanCount, 0, len(g.Sinks))
	for _, s := range g.Sinks {
		name := g.Nodes[s.Node].Level.Name
		out = append(out, PlanCount{Level: name, Rank: s.Rank, Plans: byLevel[name]})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Rank > out[j].Rank })
	return out
}
