package qrg

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"qosres/internal/broker"
	"qosres/internal/qos"
	"qosres/internal/svc"
)

// This file is the one QRG construction. Everything about the graph
// that depends only on the (service, binding) pair — topological order,
// level matching between upstream Qout and downstream Qin vectors, fan-in
// cross-product combinations, and the binding-resolved requirement vector
// of every supported translation pair (with its resource names
// pre-sorted) — is computed once by Compile. Instantiate then builds the
// graph against one availability snapshot, re-evaluating only edge
// feasibility, Ψ, and α.
//
// Feasibility pruning makes the node/edge *set* snapshot-dependent (a
// Qout node exists only when some translation into it is feasible, which
// cascades into downstream Qin creation), so the template cannot
// pre-enumerate the final graph. What it can do is remove every
// allocation, sort, map lookup, and vector comparison from the
// per-snapshot loop. Node and edge IDs follow a fixed creation order
// (topological, then declared level order), which the planners' ID-based
// tie-breaks rely on. FuzzTemplateMatchesReference pins every
// instantiation to a straightforward reference builder, which only tests
// import (package qrgtest): same graph, field for field, and the same
// plans.

// tmplComp is the compiled form of one component, in topological order.
type tmplComp struct {
	id   svc.ComponentID
	comp *svc.Component
	// preds indexes the sorted upstream components within Template.comps
	// (upstream components always precede this one in topo order).
	preds   []int
	predIDs []svc.ComponentID
	// singleMatch[j] is the index into comp.In whose vector equals the
	// single upstream component's j-th declared output level, or -1.
	singleMatch []int
	// fanMatch flattens the cross product of the upstream components'
	// declared output-level indices: cell Σ idx[i]·fanStrides[i] holds
	// the comp.In index matching that combination's labelled
	// concatenation, or -1. The last upstream varies fastest.
	fanMatch   []int
	fanStrides []int
	// reqs[i·len(comp.Out)+j] is the bound requirement of the
	// translation comp.In[i] -> comp.Out[j], or its binding error; nil
	// when unsupported.
	reqs []*boundReq
}

// tmplSink is one end-to-end ranking entry resolved to the sink
// component's declared output-level index.
type tmplSink struct {
	outLevel int
	rank     int
}

// instScratch holds the per-Instantiate working state, pooled so a
// steady-state instantiation allocates nothing but fan-in Parts maps.
type instScratch struct {
	// outs[k]/outLvl[k]: live Qout node IDs of component k and their
	// declared output-level indices, in declared order.
	outs   [][]int
	outLvl [][]int
	// inIDs/inLvl: the current component's live Qin nodes (creation
	// order) and their declared input-level indices.
	inIDs []int
	inLvl []int
	// byLevel / outID: declared level index -> node ID (-1 unset),
	// reset per component.
	byLevel []int
	outID   []int
	combo   []int
	// adjacency construction scratch (degrees double as fill cursors).
	outDeg []int
	inDeg  []int
}

// Template is a compiled, snapshot-independent representation of the
// QRG of one (service, binding) pair. Compile once, then Instantiate
// per availability snapshot; instantiation is allocation-free apart
// from fan-in combination bookkeeping.
//
// Graphs returned by Instantiate share their Edge.Req maps with the
// template: treat them as read-only (planners already clone before
// mutating). Hot callers may hand a finished graph back via Recycle to
// reuse its buffers.
type Template struct {
	service *svc.Service
	comps   []tmplComp // in topological order
	// sinkComp indexes the sink component in comps; sinks lists the
	// ranking entries resolvable to declared sink output levels.
	sinkComp int
	sinks    []tmplSink
	nodeCap  int
	edgeCap  int
	// resources lists every concrete resource the binding names for the
	// service's components, once each: components in ComponentIDs order,
	// each one's abstract names sorted.
	resources []string
	// chain marks a dependency graph that is a simple chain
	// (svc.Service.IsChain); every instantiated graph carries it.
	chain bool

	graphs  sync.Pool // *Graph
	scratch sync.Pool // *instScratch
	// derived is the one value a caller derived from the template with
	// Derive, and the key it was derived for.
	derived atomic.Pointer[derivedValue]
}

// derivedValue is the content of Template.derived.
type derivedValue struct {
	key, val interface{}
}

// Compile builds the snapshot-independent template of a (service,
// binding) pair.
//
// Equivalence between an upstream Qout level and a downstream Qin level
// is QoS vector equality; for fan-in components the upstream Qout
// vectors are concatenated (labelled by upstream component ID, in sorted
// order) before matching, as defined in section 4.3.2. A component
// whose tables would exceed svc.MaxTableCells cells is refused.
//
// The pair's resource set (Resources) and chain mark are fixed here
// too, and a binding that names no resource for any of the service's
// components is refused.
//
// A translation pair whose requirement the binding cannot resolve does
// not fail Compile: the pair keeps its error, and Instantiate returns it
// only when it evaluates the pair from a live input node. A level that
// nothing upstream produces therefore needs no binding.
func Compile(service *svc.Service, binding svc.Binding) (*Template, error) {
	if service == nil {
		return nil, fmt.Errorf("qrg: nil service")
	}
	order, err := service.TopoOrder()
	if err != nil {
		return nil, err
	}
	t := &Template{service: service, chain: service.IsChain()}
	if t.resources = boundResources(service, binding); len(t.resources) == 0 {
		return nil, fmt.Errorf("qrg: service %s: binding names no resources", service.Name)
	}
	compIdx := make(map[svc.ComponentID]int, len(order))
	sources := 0
	for k, cid := range order {
		compIdx[cid] = k
		comp := service.Components[cid]
		if svc.TooManyCells(len(comp.In), len(comp.Out)) {
			return nil, fmt.Errorf("qrg: service %s: component %s has %d input × %d output levels, more than %d requirement cells",
				service.Name, cid, len(comp.In), len(comp.Out), svc.MaxTableCells)
		}
		tc := tmplComp{id: cid, comp: comp}
		preds := service.Preds(cid)
		sort.Slice(preds, func(i, j int) bool { return preds[i] < preds[j] })
		tc.predIDs = preds
		tc.preds = make([]int, len(preds))
		for i, p := range preds {
			tc.preds[i] = compIdx[p]
		}
		switch len(preds) {
		case 0:
			sources++
			if sources > 1 {
				return nil, fmt.Errorf("qrg: service %s has multiple source components", service.Name)
			}
		case 1:
			up := service.Components[preds[0]]
			if svc.TooManyCells(len(up.Out), len(comp.In)) {
				return nil, fmt.Errorf("qrg: service %s: component %s matches %d upstream output × %d input levels, more than %d cells",
					service.Name, cid, len(up.Out), len(comp.In), svc.MaxTableCells)
			}
			tc.singleMatch = make([]int, len(up.Out))
			for j, lvl := range up.Out {
				tc.singleMatch[j] = matchInLevelIdx(comp, lvl.Vector)
			}
		default:
			// Strides are computed last predecessor first; the size check
			// divides before it multiplies, so it cannot overflow.
			strides := make([]int, len(preds))
			size := 1
			for i := len(preds) - 1; i >= 0; i-- {
				strides[i] = size
				d := len(service.Components[preds[i]].Out)
				if svc.TooManyCells(size, d) {
					return nil, fmt.Errorf("qrg: service %s: fan-in component %s has more than %d combinations of upstream output levels",
						service.Name, cid, svc.MaxTableCells)
				}
				size *= d
			}
			tc.fanStrides = strides
			tc.fanMatch = make([]int, size)
			labels := make([]string, len(preds))
			vectors := make([]qos.Vector, len(preds))
			for i, p := range preds {
				labels[i] = string(p)
			}
			for flat := 0; flat < size; flat++ {
				rem := flat
				for i, p := range preds {
					vectors[i] = service.Components[p].Out[rem/strides[i]].Vector
					rem %= strides[i]
				}
				tc.fanMatch[flat] = matchInLevelIdx(comp, qos.ConcatAll(labels, vectors))
			}
		}
		tc.reqs = make([]*boundReq, len(comp.In)*len(comp.Out))
		for i, in := range comp.In {
			for j, out := range comp.Out {
				req, ok := comp.Translate(in, out)
				if !ok {
					continue
				}
				bound, err := binding.Bind(cid, req)
				if err != nil {
					tc.reqs[i*len(comp.Out)+j] = &boundReq{err: fmt.Errorf("qrg: service %s: %v", service.Name, err)}
					continue
				}
				tc.reqs[i*len(comp.Out)+j] = newBoundReq(bound)
			}
		}
		t.comps = append(t.comps, tc)
		t.nodeCap += len(comp.In) + len(comp.Out)
		t.edgeCap += len(comp.In)*len(comp.Out) + len(comp.Out)
	}
	if sources == 0 {
		return nil, fmt.Errorf("qrg: service %s produced no source node", service.Name)
	}
	sinkComp, err := service.Sink()
	if err != nil {
		return nil, err
	}
	t.sinkComp = compIdx[sinkComp.ID]
	for _, name := range service.EndToEndRanking {
		for j, lvl := range sinkComp.Out {
			if lvl.Name == name {
				t.sinks = append(t.sinks, tmplSink{outLevel: j, rank: service.RankOf(name)})
				break
			}
		}
	}
	t.graphs.New = func() interface{} { return new(Graph) }
	t.scratch.New = func() interface{} { return new(instScratch) }
	return t, nil
}

// boundResources lists the concrete resources binding names for the
// service's components, once each, in ComponentIDs order and, within a
// component, by abstract name.
func boundResources(service *svc.Service, binding svc.Binding) []string {
	var out, names []string
	seen := make(map[string]bool)
	for _, cid := range service.ComponentIDs() {
		m := binding[cid]
		names = names[:0]
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if concrete := m[name]; !seen[concrete] {
				seen[concrete] = true
				out = append(out, concrete)
			}
		}
	}
	return out
}

// Resources returns the concrete resources the template's binding names
// for the service's components, once each: every resource an
// instantiation can require. The slice is shared; callers must not
// modify it.
func (t *Template) Resources() []string { return t.resources }

// Derive returns derive(t), computed once per key and kept in one slot
// that lives and dies with the template: a call with the key of the
// slot's value (compared with ==) returns that value, a call with
// another key derives again and replaces it. Concurrent callers may
// each derive; the last store wins.
func (t *Template) Derive(key interface{}, derive func(*Template) interface{}) interface{} {
	if d := t.derived.Load(); d != nil && d.key == key {
		return d.val
	}
	v := derive(t)
	t.derived.Store(&derivedValue{key: key, val: v})
	return v
}

// matchInLevelIdx returns the index of the component's declared input
// level whose vector equals v, or -1.
func matchInLevelIdx(comp *svc.Component, v qos.Vector) int {
	for i, lvl := range comp.In {
		if lvl.Vector.Equal(v) {
			return i
		}
	}
	return -1
}

// Instantiate evaluates the template against one availability snapshot
// and returns the session's QRG.
func (t *Template) Instantiate(snap *broker.Snapshot) (*Graph, error) {
	return t.InstantiateWithOptions(snap, BuildOptions{})
}

// InstantiateWithOptions is Instantiate with non-default options.
func (t *Template) InstantiateWithOptions(snap *broker.Snapshot, opts BuildOptions) (*Graph, error) {
	if snap == nil {
		return nil, fmt.Errorf("qrg: nil snapshot")
	}
	contention := opts.Contention
	if contention == nil {
		contention = RatioContention
	}
	g := t.graphs.Get().(*Graph)
	if cap(g.Nodes) == 0 {
		g.Nodes = make([]Node, 0, t.nodeCap)
		g.Edges = make([]Edge, 0, t.edgeCap)
	}
	g.Nodes = g.Nodes[:0]
	g.Edges = g.Edges[:0]
	g.Sinks = g.Sinks[:0]
	g.Service = t.service
	g.Chain = t.chain
	g.Snapshot = snap
	g.Source = -1

	sc := t.scratch.Get().(*instScratch)
	sc.grow(len(t.comps))

	for k := range t.comps {
		tc := &t.comps[k]
		comp := tc.comp
		sc.inIDs = sc.inIDs[:0]
		sc.inLvl = sc.inLvl[:0]

		// 1. Qin nodes plus incoming equivalence edges.
		switch len(tc.preds) {
		case 0:
			id := instAddNode(g, Node{Comp: tc.id, Kind: In, Level: comp.In[0]})
			g.Source = id
			sc.inIDs = append(sc.inIDs, id)
			sc.inLvl = append(sc.inLvl, 0)
		case 1:
			byLevel := sc.resetLevels(&sc.byLevel, len(comp.In))
			up := tc.preds[0]
			upOuts, upLvls := sc.outs[up], sc.outLvl[up]
			for x, upID := range upOuts {
				lvlIdx := tc.singleMatch[upLvls[x]]
				if lvlIdx < 0 {
					continue // dead-end upstream level; no equivalence
				}
				id := byLevel[lvlIdx]
				if id < 0 {
					id = instAddNode(g, Node{Comp: tc.id, Kind: In, Level: comp.In[lvlIdx]})
					byLevel[lvlIdx] = id
					sc.inIDs = append(sc.inIDs, id)
					sc.inLvl = append(sc.inLvl, lvlIdx)
				}
				instAddEdge(g, Edge{From: upID, To: id, Kind: Equivalence})
			}
		default:
			// Fan-in: odometer over the live Qout nodes of each upstream
			// component, last component fastest.
			n := len(tc.preds)
			empty := false
			for _, p := range tc.preds {
				if len(sc.outs[p]) == 0 {
					empty = true
					break
				}
			}
			if empty {
				break
			}
			combo := sc.combo[:n]
			for i := range combo {
				combo[i] = 0
			}
			for {
				flat := 0
				for i, p := range tc.preds {
					flat += sc.outLvl[p][combo[i]] * tc.fanStrides[i]
				}
				if lvlIdx := tc.fanMatch[flat]; lvlIdx >= 0 {
					parts := make(map[svc.ComponentID]int, n)
					for i, p := range tc.preds {
						parts[tc.predIDs[i]] = sc.outs[p][combo[i]]
					}
					id := instAddNode(g, Node{Comp: tc.id, Kind: In, Level: comp.In[lvlIdx], Parts: parts})
					sc.inIDs = append(sc.inIDs, id)
					sc.inLvl = append(sc.inLvl, lvlIdx)
					for i, p := range tc.preds {
						instAddEdge(g, Edge{From: sc.outs[p][combo[i]], To: id, Kind: Equivalence})
					}
				}
				i := n - 1
				for ; i >= 0; i-- {
					combo[i]++
					if combo[i] < len(sc.outs[tc.preds[i]]) {
						break
					}
					combo[i] = 0
				}
				if i < 0 {
					break
				}
			}
		}

		// 2. Qout nodes and translation edges for every feasible pair —
		// the only snapshot-dependent decision in the whole build.
		outID := sc.resetLevels(&sc.outID, len(comp.Out))
		for j, lvl := range comp.Out {
			row := tc.reqs[j:]
			for x, inNode := range sc.inIDs {
				br := row[sc.inLvl[x]*len(comp.Out)]
				if br == nil {
					continue
				}
				if br.err != nil {
					t.scratch.Put(sc)
					t.Recycle(g)
					return nil, br.err
				}
				psi, bottleneck, feasible := br.weight(snap.Avail, contention)
				if !feasible {
					continue
				}
				oid := outID[j]
				if oid < 0 {
					oid = instAddNode(g, Node{Comp: tc.id, Kind: Out, Level: lvl})
					outID[j] = oid
				}
				instAddEdge(g, Edge{
					From:       inNode,
					To:         oid,
					Kind:       Translation,
					Weight:     psi,
					Req:        br.vec,
					Bottleneck: bottleneck,
					Alpha:      snap.Alpha[bottleneck],
				})
			}
		}
		sc.outs[k] = sc.outs[k][:0]
		sc.outLvl[k] = sc.outLvl[k][:0]
		for j := range comp.Out {
			if outID[j] >= 0 {
				sc.outs[k] = append(sc.outs[k], outID[j])
				sc.outLvl[k] = append(sc.outLvl[k], j)
			}
		}
	}

	// 3. Sinks best-first, restricted to levels that survived pruning.
	for _, s := range t.sinks {
		for x, j := range sc.outLvl[t.sinkComp] {
			if j == s.outLevel {
				g.Sinks = append(g.Sinks, Sink{Node: sc.outs[t.sinkComp][x], Rank: s.rank})
				break
			}
		}
	}

	buildAdjacency(g, sc)
	t.scratch.Put(sc)
	return g, nil
}

// Recycle returns a graph obtained from Instantiate to the template's
// buffer pool. The caller must not touch the graph (or slices obtained
// from it) afterwards; plans are safe, they own their data.
func (t *Template) Recycle(g *Graph) {
	if g == nil {
		return
	}
	g.Service = nil
	g.Snapshot = nil
	t.graphs.Put(g)
}

// instAddNode appends a node without touching adjacency (built in one
// CSR pass at the end of Instantiate).
func instAddNode(g *Graph, n Node) int {
	n.ID = len(g.Nodes)
	g.Nodes = append(g.Nodes, n)
	return n.ID
}

// instAddEdge appends an edge without touching adjacency.
func instAddEdge(g *Graph, e Edge) int {
	e.ID = len(g.Edges)
	g.Edges = append(g.Edges, e)
	return e.ID
}

// buildAdjacency fills g.OutEdges/g.InEdges CSR-style: per-node slices
// share two flat arrays owned by the graph, so the whole adjacency
// costs two allocations at steady state (none once recycled). Filling
// in ascending edge-ID order keeps each node's edges in creation order.
func buildAdjacency(g *Graph, sc *instScratch) {
	n, m := len(g.Nodes), len(g.Edges)
	outDeg := resizeInts(&sc.outDeg, n)
	inDeg := resizeInts(&sc.inDeg, n)
	for i := range outDeg {
		outDeg[i] = 0
		inDeg[i] = 0
	}
	for i := range g.Edges {
		outDeg[g.Edges[i].From]++
		inDeg[g.Edges[i].To]++
	}
	outFlat := resizeInts(&g.outFlat, m)
	inFlat := resizeInts(&g.inFlat, m)
	if cap(g.OutEdges) < n {
		g.OutEdges = make([][]int, n)
		g.InEdges = make([][]int, n)
	}
	g.OutEdges = g.OutEdges[:n]
	g.InEdges = g.InEdges[:n]
	// First pass: turn degrees into fill cursors (start offsets).
	outOff, inOff := 0, 0
	for v := 0; v < n; v++ {
		d := outDeg[v]
		outDeg[v] = outOff
		outOff += d
		d = inDeg[v]
		inDeg[v] = inOff
		inOff += d
	}
	for eid := range g.Edges {
		e := &g.Edges[eid]
		outFlat[outDeg[e.From]] = eid
		outDeg[e.From]++
		inFlat[inDeg[e.To]] = eid
		inDeg[e.To]++
	}
	// Second pass: cursors now hold end offsets; slice the flat arrays.
	// Zero-degree nodes get nil.
	prevOut, prevIn := 0, 0
	for v := 0; v < n; v++ {
		if end := outDeg[v]; end == prevOut {
			g.OutEdges[v] = nil
		} else {
			g.OutEdges[v] = outFlat[prevOut:end:end]
			prevOut = end
		}
		if end := inDeg[v]; end == prevIn {
			g.InEdges[v] = nil
		} else {
			g.InEdges[v] = inFlat[prevIn:end:end]
			prevIn = end
		}
	}
}

// grow sizes the per-component scratch for n components.
func (sc *instScratch) grow(n int) {
	if cap(sc.outs) < n {
		sc.outs = make([][]int, n)
		sc.outLvl = make([][]int, n)
		sc.combo = make([]int, n)
	}
	sc.outs = sc.outs[:n]
	sc.outLvl = sc.outLvl[:n]
	sc.combo = sc.combo[:n]
}

// resetLevels sizes *buf for n declared levels and fills it with -1.
func (sc *instScratch) resetLevels(buf *[]int, n int) []int {
	b := resizeInts(buf, n)
	for i := range b {
		b[i] = -1
	}
	return b
}

// resizeInts grows *buf to length n, reusing its backing array.
func resizeInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
