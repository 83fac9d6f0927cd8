// Package qrgtest holds the reference QRG builder that tests compare
// qrg.Compile + Instantiate against. Only test files import it: the
// program has one QRG construction, the compiled template.
package qrgtest

import (
	"fmt"
	"reflect"
	"sort"

	"qosres/internal/broker"
	"qosres/internal/qos"
	"qosres/internal/qrg"
	"qosres/internal/svc"
)

// ReferenceBuild is the differential oracle for Compile + Instantiate:
// the QRG of section 4.1.1 built directly, one component at a time,
// with no precomputation. It binds a translation pair when it first
// evaluates it from a live input node, grows adjacency edge by edge, and
// enumerates fan-in combinations of the live upstream Qout nodes only.
// The template must produce the same graph, field for field (GraphDiff),
// and refuse exactly what this refuses.
func ReferenceBuild(service *svc.Service, binding svc.Binding, snap *broker.Snapshot, opts qrg.BuildOptions) (*qrg.Graph, error) {
	if service == nil {
		return nil, fmt.Errorf("qrg: nil service")
	}
	if snap == nil {
		return nil, fmt.Errorf("qrg: nil snapshot")
	}
	if !namesResources(service, binding) {
		return nil, fmt.Errorf("qrg: service %s: binding names no resources", service.Name)
	}
	contention := opts.Contention
	if contention == nil {
		contention = qrg.RatioContention
	}
	order, err := service.TopoOrder()
	if err != nil {
		return nil, err
	}
	g := &qrg.Graph{Service: service, Chain: service.IsChain(), Source: -1, Snapshot: snap}

	// outNodes[comp] lists the Qout node IDs created for comp, in the
	// component's declared level order.
	outNodes := make(map[svc.ComponentID][]int, len(order))

	for _, cid := range order {
		comp := service.Components[cid]
		preds := service.Preds(cid)
		sort.Slice(preds, func(i, j int) bool { return preds[i] < preds[j] })

		// 1. The component's Qin nodes plus incoming equivalence edges.
		var inIDs []int
		switch len(preds) {
		case 0:
			// Source component: single Qin node, the source data quality.
			if g.Source != -1 {
				return nil, fmt.Errorf("qrg: service %s has multiple source components", service.Name)
			}
			g.Source = addNode(g, qrg.Node{Comp: cid, Kind: qrg.In, Level: comp.In[0]})
			inIDs = append(inIDs, g.Source)
		case 1:
			// Chain / fan-out upstream: one Qin node per distinct matched
			// input level; equivalence edges from every upstream Qout node
			// whose vector equals it.
			byLevel := make(map[string]int)
			for _, up := range outNodes[preds[0]] {
				lvl, ok := matchInLevel(comp, g.Nodes[up].Level.Vector)
				if !ok {
					continue // dead-end upstream level; no equivalence
				}
				id, exists := byLevel[lvl.Name]
				if !exists {
					id = addNode(g, qrg.Node{Comp: cid, Kind: qrg.In, Level: lvl})
					byLevel[lvl.Name] = id
					inIDs = append(inIDs, id)
				}
				addEdge(g, qrg.Edge{From: up, To: id, Kind: qrg.Equivalence})
			}
		default:
			// Fan-in: one Qin node per combination of upstream Qout
			// nodes; the Qin vector is the labelled concatenation of the
			// upstream Qout vectors.
			for _, combo := range crossProduct(preds, outNodes) {
				labels := make([]string, len(preds))
				vectors := make([]qos.Vector, len(preds))
				parts := make(map[svc.ComponentID]int, len(preds))
				for i, p := range preds {
					labels[i] = string(p)
					vectors[i] = g.Nodes[combo[i]].Level.Vector
					parts[p] = combo[i]
				}
				lvl, ok := matchInLevel(comp, qos.ConcatAll(labels, vectors))
				if !ok {
					continue
				}
				id := addNode(g, qrg.Node{Comp: cid, Kind: qrg.In, Level: lvl, Parts: parts})
				inIDs = append(inIDs, id)
				for _, up := range combo {
					addEdge(g, qrg.Edge{From: up, To: id, Kind: qrg.Equivalence})
				}
			}
		}

		// 2. Qout nodes and translation edges for every feasible
		// (Qin, Qout) pair.
		outByLevel := make(map[string]int, len(comp.Out))
		for _, lvl := range comp.Out {
			for _, inID := range inIDs {
				req, ok := comp.Translate(g.Nodes[inID].Level, lvl)
				if !ok {
					continue // unsupported translation pair
				}
				bound, err := binding.Bind(cid, req)
				if err != nil {
					return nil, fmt.Errorf("qrg: service %s: %v", service.Name, err)
				}
				psi, bottleneck, feasible := weight(bound, snap.Avail, contention)
				if !feasible {
					continue
				}
				outID, exists := outByLevel[lvl.Name]
				if !exists {
					outID = addNode(g, qrg.Node{Comp: cid, Kind: qrg.Out, Level: lvl})
					outByLevel[lvl.Name] = outID
				}
				addEdge(g, qrg.Edge{
					From:       inID,
					To:         outID,
					Kind:       qrg.Translation,
					Weight:     psi,
					Req:        bound,
					Bottleneck: bottleneck,
					Alpha:      snap.Alpha[bottleneck],
				})
			}
		}
		for _, lvl := range comp.Out {
			if id, ok := outByLevel[lvl.Name]; ok {
				outNodes[cid] = append(outNodes[cid], id)
			}
		}
	}
	if g.Source == -1 {
		return nil, fmt.Errorf("qrg: service %s produced no source node", service.Name)
	}

	// 3. Rank the sink component's Qout nodes best-first.
	sinkComp, err := service.Sink()
	if err != nil {
		return nil, err
	}
	byName := make(map[string]int)
	for _, id := range outNodes[sinkComp.ID] {
		byName[g.Nodes[id].Level.Name] = id
	}
	for _, name := range service.EndToEndRanking {
		if id, ok := byName[name]; ok {
			g.Sinks = append(g.Sinks, qrg.Sink{Node: id, Rank: service.RankOf(name)})
		}
	}
	return g, nil
}

// namesResources reports whether the binding maps some abstract name of
// one of the service's components to a concrete resource.
func namesResources(service *svc.Service, binding svc.Binding) bool {
	for cid := range service.Components {
		if len(binding[cid]) > 0 {
			return true
		}
	}
	return false
}

// matchInLevel finds the component's declared input level whose vector
// equals v.
func matchInLevel(comp *svc.Component, v qos.Vector) (svc.Level, bool) {
	for _, lvl := range comp.In {
		if lvl.Vector.Equal(v) {
			return lvl, true
		}
	}
	return svc.Level{}, false
}

// crossProduct enumerates every combination choosing one Qout node per
// upstream component, preserving pred order (last upstream fastest).
func crossProduct(preds []svc.ComponentID, outNodes map[svc.ComponentID][]int) [][]int {
	combos := [][]int{nil}
	for _, p := range preds {
		outs := outNodes[p]
		if len(outs) == 0 {
			return nil // some upstream component has no feasible output
		}
		next := make([][]int, 0, len(combos)*len(outs))
		for _, c := range combos {
			for _, o := range outs {
				next = append(next, append(append([]int(nil), c...), o))
			}
		}
		combos = next
	}
	return combos
}

// weight is Ψ of a bound requirement under contention f (equation 3):
// the maximum of f(need, available) over the positive requirements in
// resource-name order, the first name winning a tie. A requirement
// that exceeds availability, or names a resource the snapshot lacks,
// makes the translation infeasible.
func weight(req qos.ResourceVector, avail qos.ResourceVector, f qrg.ContentionFunc) (psi float64, bottleneck string, feasible bool) {
	for _, r := range req.Names() {
		need := req[r]
		if need == 0 {
			continue
		}
		have, ok := avail[r]
		if !ok || need > have {
			return 0, r, false
		}
		if c := f(need, have); c > psi {
			psi = c
			bottleneck = r
		}
	}
	return psi, bottleneck, true
}

// addNode appends a node and returns its ID.
func addNode(g *qrg.Graph, n qrg.Node) int {
	n.ID = len(g.Nodes)
	g.Nodes = append(g.Nodes, n)
	g.OutEdges = append(g.OutEdges, nil)
	g.InEdges = append(g.InEdges, nil)
	return n.ID
}

// addEdge appends an edge and wires adjacency.
func addEdge(g *qrg.Graph, e qrg.Edge) {
	e.ID = len(g.Edges)
	g.Edges = append(g.Edges, e)
	g.OutEdges[e.From] = append(g.OutEdges[e.From], e.ID)
	g.InEdges[e.To] = append(g.InEdges[e.To], e.ID)
}

// GraphDiff compares every observable field of two graphs and describes
// the first difference, or returns "" when they are the same. nil equals
// empty: the reference builder grows its slices from nil, instantiation
// reuses pooled ones.
func GraphDiff(want, got *qrg.Graph) string {
	switch {
	case !sameSlice(want.Nodes, got.Nodes):
		return fmt.Sprintf("nodes differ\nreference: %+v\ntemplate:  %+v", want.Nodes, got.Nodes)
	case !sameSlice(want.Edges, got.Edges):
		return fmt.Sprintf("edges differ\nreference: %+v\ntemplate:  %+v", want.Edges, got.Edges)
	case !sameSlice(want.OutEdges, got.OutEdges):
		return fmt.Sprintf("out-adjacency differs\nreference: %v\ntemplate:  %v", want.OutEdges, got.OutEdges)
	case !sameSlice(want.InEdges, got.InEdges):
		return fmt.Sprintf("in-adjacency differs\nreference: %v\ntemplate:  %v", want.InEdges, got.InEdges)
	case want.Chain != got.Chain:
		return fmt.Sprintf("chain mark %v vs %v", want.Chain, got.Chain)
	case want.Source != got.Source:
		return fmt.Sprintf("source %d vs %d", want.Source, got.Source)
	case !sameSlice(want.Sinks, got.Sinks):
		return fmt.Sprintf("sinks differ: %v vs %v", want.Sinks, got.Sinks)
	}
	return ""
}

// sameSlice is reflect.DeepEqual that lets nil equal empty.
func sameSlice(a, b interface{}) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Len() == 0 && vb.Len() == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}
