// Package qrg implements the QoS-Resource Graph of section 4.1.1. For one
// service session, the QRG is a snapshot of the end-to-end resource
// requirement and availability: the achievable Qin/Qout levels of every
// participating component become nodes, translation edges connect the
// (Qin, Qout) pairs whose resource requirement is satisfiable under the
// current availability, and equivalence edges (weight zero) connect each
// component's Qout nodes to the matching Qin nodes of its downstream
// components. The weight of a translation edge is the contention index of
// its bottleneck resource, Ψ = max_i r_i^req / r_i^avail (equations 2-3).
package qrg

import (
	"strings"

	"qosres/internal/broker"
	"qosres/internal/qos"
	"qosres/internal/svc"
)

// NodeKind distinguishes Qin nodes from Qout nodes.
type NodeKind int

const (
	// In marks a Qin node.
	In NodeKind = iota
	// Out marks a Qout node.
	Out
)

// String returns "in" or "out".
func (k NodeKind) String() string {
	if k == In {
		return "in"
	}
	return "out"
}

// EdgeKind distinguishes the two QRG edge categories of section 4.1.1.
type EdgeKind int

const (
	// Translation edges run from a Qin node to a Qout node of the same
	// component and carry a resource requirement and a contention weight.
	Translation EdgeKind = iota
	// Equivalence edges run from a Qout node to a Qin node of a
	// downstream component and carry weight zero.
	Equivalence
)

// String returns "translation" or "equivalence".
func (k EdgeKind) String() string {
	if k == Translation {
		return "translation"
	}
	return "equivalence"
}

// Node is a QRG node: one Qin or Qout level of one component. A Qin node
// of a fan-in component represents one specific combination of upstream
// Qout nodes; Parts records that combination.
type Node struct {
	ID    int
	Comp  svc.ComponentID
	Kind  NodeKind
	Level svc.Level
	// Parts maps each upstream component to the Qout node (by node ID)
	// whose level this fan-in Qin node concatenates. Nil for every other
	// node.
	Parts map[svc.ComponentID]int
}

// Edge is a QRG edge.
type Edge struct {
	ID       int
	From, To int
	Kind     EdgeKind
	// Weight is Ψ for translation edges, 0 for equivalence edges.
	Weight float64
	// Req is the concrete (bound) resource requirement of a translation
	// edge; nil for equivalence edges.
	Req qos.ResourceVector
	// Bottleneck is the resource attaining Ψ on a translation edge.
	Bottleneck string
	// Alpha is the availability change index of the bottleneck resource
	// at snapshot time.
	Alpha float64
}

// Sink pairs a sink node with its end-to-end QoS rank (higher is better).
type Sink struct {
	Node int
	Rank int
}

// Graph is a QoS-Resource Graph.
type Graph struct {
	Service *svc.Service
	Nodes   []Node
	Edges   []Edge
	// OutEdges[v] lists edge IDs leaving node v; InEdges[v] those entering.
	OutEdges [][]int
	InEdges  [][]int
	// Source is the node representing the original quality of the source
	// data.
	Source int
	// Sinks lists the existing sink nodes ordered best-first by the
	// service's end-to-end ranking.
	Sinks []Sink
	// Snapshot is the availability snapshot the graph was built from.
	Snapshot *broker.Snapshot
	// Chain reports whether the service's dependency graph is a simple
	// chain (svc.Service.IsChain), which the single-path planners
	// require; the template fixes it once per service.
	Chain bool

	// outFlat/inFlat back the OutEdges/InEdges slices (CSR layout),
	// letting Recycle reuse the whole adjacency across instantiations.
	outFlat []int
	inFlat  []int
}

// NodeCount and EdgeCount are convenience accessors.
func (g *Graph) NodeCount() int { return len(g.Nodes) }

// EdgeCount returns the number of edges.
func (g *Graph) EdgeCount() int { return len(g.Edges) }

// Weight computes the contention index Ψ of a bound requirement vector
// against an availability vector: the maximum over resources of
// r^req / r^avail (equation 3), together with the bottleneck resource.
// feasible is false when some positive requirement exceeds availability
// (equation 2's precondition r^req <= r^avail fails) or names an unknown
// resource.
//
// A zero requirement contributes Ψ = 0 and never affects feasibility,
// even when the resource's availability is also zero (or the resource
// is unknown): demanding nothing of an exhausted resource is trivially
// satisfiable, and skipping the term keeps the 0/0 contention ratio
// from injecting NaN into the max-plus Dijkstra edge weights.
func Weight(req, avail qos.ResourceVector) (psi float64, bottleneck string, feasible bool) {
	return newBoundReq(req).weight(avail, RatioContention)
}

// reqEntry is one positive requirement of a bound vector, kept in
// resource-name order so feasibility/Ψ evaluation iterates
// deterministically without re-sorting.
type reqEntry struct {
	res  string
	need float64
}

// boundReq is a binding-resolved translation requirement with its
// entries pre-sorted by resource name, so every QRG instantiation
// re-evaluates every candidate translation edge without allocating or
// sorting. err holds the pair's binding failure instead: Instantiate
// reports it only when the pair is evaluated from a live input node.
type boundReq struct {
	vec     qos.ResourceVector
	entries []reqEntry
	err     error
}

// newBoundReq caches the sorted positive entries of a bound vector.
// Zero requirements are dropped up front: they can never contribute Ψ,
// infeasibility, or a bottleneck name.
func newBoundReq(vec qos.ResourceVector) *boundReq {
	br := &boundReq{vec: vec}
	names := vec.Names()
	br.entries = make([]reqEntry, 0, len(names))
	for _, r := range names {
		if vec[r] != 0 {
			br.entries = append(br.entries, reqEntry{res: r, need: vec[r]})
		}
	}
	return br
}

// weight evaluates Ψ under contention f: the entries iterate in
// resource-name order, so bottleneck ties resolve to the first name.
func (b *boundReq) weight(avail qos.ResourceVector, f ContentionFunc) (psi float64, bottleneck string, feasible bool) {
	for i := range b.entries {
		en := &b.entries[i]
		have, ok := avail[en.res]
		if !ok || en.need > have {
			return 0, en.res, false
		}
		if c := f(en.need, have); c > psi {
			psi = c
			bottleneck = en.res
		}
	}
	return psi, bottleneck, true
}

// BuildOptions customizes QRG construction.
type BuildOptions struct {
	// Contention overrides the per-resource contention index ψ; nil
	// uses the paper's ratio definition.
	Contention ContentionFunc
}

// Build constructs the QRG for one service session: the service model,
// the session's resource binding (component-local resource names to
// concrete environment resource IDs), and the availability snapshot. It
// compiles the pair's template and instantiates it once; callers that
// build the same pair against many snapshots keep the Template (or a
// TemplateCache) instead.
func Build(service *svc.Service, binding svc.Binding, snap *broker.Snapshot) (*Graph, error) {
	tpl, err := Compile(service, binding)
	if err != nil {
		return nil, err
	}
	return tpl.Instantiate(snap)
}

// PathLevels renders a node sequence as the dash-joined level names the
// paper's tables 1-2 use, e.g. "Qa-Qc-Qf-Qi-Qm-Qp".
func (g *Graph) PathLevels(nodes []int) string {
	var b strings.Builder
	size := 0
	for _, id := range nodes {
		size += len(g.Nodes[id].Level.Name) + 1
	}
	b.Grow(size)
	for i, id := range nodes {
		if i > 0 {
			b.WriteByte('-')
		}
		b.WriteString(g.Nodes[id].Level.Name)
	}
	return b.String()
}
