package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"qosres/internal/broker"
	"qosres/internal/obs"
	"qosres/internal/trace"
)

// Node is one span of a reconstructed tree with its events and
// children (children sorted by start time).
type Node struct {
	Name     string
	Scope    string
	Status   string
	At       broker.Time
	Duration float64
	SpanID   string
	ParentID string
	Events   []trace.Event
	Children []*Node
}

// Tree is one reconstructed trace.
type Tree struct {
	TraceID string
	Root    *Node
	Spans   int
	// Orphans counts spans of this trace whose parent span never
	// appeared (a broken causal link).
	Orphans int
}

// Errored reports whether any span of the tree ended non-ok.
func (t *Tree) Errored() bool {
	var walk func(n *Node) bool
	walk = func(n *Node) bool {
		if n.Status != "" && n.Status != obs.StatusOK {
			return true
		}
		for _, c := range n.Children {
			if walk(c) {
				return true
			}
		}
		return false
	}
	return t.Root != nil && walk(t.Root)
}

// Forest is every trace reconstructed from an event stream.
type Forest struct {
	Trees []*Tree
	// OrphanSpans counts spans across all traces whose parent never
	// appeared.
	OrphanSpans int
	// Rootless counts traces that have spans but no root span — an
	// unterminated (or never-exported) root.
	Rootless int
	// MultiRoot counts traces with more than one root span.
	MultiRoot int
	// DanglingEvents counts SpanEvent events whose span never appeared.
	DanglingEvents int
}

// Complete reports whether every trace reconstructed into a single
// fully-parented tree — the chaos-harness invariant.
func (f *Forest) Complete() bool {
	return f.OrphanSpans == 0 && f.Rootless == 0 && f.MultiRoot == 0
}

// FromEvents reconstructs the span trees recorded in an event stream,
// ignoring non-span events (a JSONL file usually interleaves session
// lifecycle events with spans).
func FromEvents(events []trace.Event) *Forest {
	type traceAcc struct {
		nodes map[string]*Node
		order []string
	}
	traces := make(map[string]*traceAcc)
	var traceOrder []string
	acc := func(tid string) *traceAcc {
		a := traces[tid]
		if a == nil {
			a = &traceAcc{nodes: make(map[string]*Node)}
			traces[tid] = a
			traceOrder = append(traceOrder, tid)
		}
		return a
	}
	f := &Forest{}
	// First pass: materialize spans.
	for _, ev := range events {
		if ev.Kind != trace.SpanEnd || ev.TraceID == "" {
			continue
		}
		a := acc(ev.TraceID)
		if _, dup := a.nodes[ev.SpanID]; dup {
			continue
		}
		a.nodes[ev.SpanID] = &Node{
			Name: ev.Stage, Scope: ev.Scope, Status: ev.Status,
			At: ev.At, Duration: ev.Duration,
			SpanID: ev.SpanID, ParentID: ev.ParentID,
		}
		a.order = append(a.order, ev.SpanID)
	}
	// Second pass: attach events to their spans.
	for _, ev := range events {
		if ev.Kind != trace.SpanEvent || ev.TraceID == "" {
			continue
		}
		a := traces[ev.TraceID]
		if a == nil {
			f.DanglingEvents++
			continue
		}
		n := a.nodes[ev.SpanID]
		if n == nil {
			f.DanglingEvents++
			continue
		}
		n.Events = append(n.Events, ev)
	}
	// Link trees.
	for _, tid := range traceOrder {
		a := traces[tid]
		t := &Tree{TraceID: tid, Spans: len(a.order)}
		roots := 0
		for _, sid := range a.order {
			n := a.nodes[sid]
			if n.ParentID == "" {
				roots++
				if t.Root == nil {
					t.Root = n
				}
				continue
			}
			p := a.nodes[n.ParentID]
			if p == nil {
				t.Orphans++
				continue
			}
			p.Children = append(p.Children, n)
		}
		for _, sid := range a.order {
			n := a.nodes[sid]
			sort.Slice(n.Children, func(i, j int) bool {
				if n.Children[i].At != n.Children[j].At {
					return n.Children[i].At < n.Children[j].At
				}
				return n.Children[i].SpanID < n.Children[j].SpanID
			})
		}
		f.OrphanSpans += t.Orphans
		switch {
		case roots == 0:
			f.Rootless++
		case roots > 1:
			f.MultiRoot++
		}
		f.Trees = append(f.Trees, t)
	}
	return f
}

// PathStep is one span on a critical path.
type PathStep struct {
	Name     string
	Scope    string
	Status   string
	Duration float64
	// Self is the span's duration not covered by its own critical
	// child — the time attributable to this step itself.
	Self float64
}

// CriticalPath walks the dominant-duration chain from the root: at
// each span, descend into the child with the largest duration.
func (t *Tree) CriticalPath() []PathStep {
	var out []PathStep
	n := t.Root
	for n != nil {
		var next *Node
		for _, c := range n.Children {
			if next == nil || c.Duration > next.Duration {
				next = c
			}
		}
		self := n.Duration
		if next != nil {
			self -= next.Duration
			if self < 0 {
				self = 0
			}
		}
		out = append(out, PathStep{Name: n.Name, Scope: n.Scope,
			Status: n.Status, Duration: n.Duration, Self: self})
		n = next
	}
	return out
}

// PathString renders a critical path compactly:
// "establish 1.2ms > reserve 0.9ms > prepare[h0->h2] 0.8ms".
func PathString(path []PathStep) string {
	parts := make([]string, 0, len(path))
	for _, s := range path {
		label := s.Name
		if s.Scope != "" && strings.Contains(s.Scope, "->") {
			label += "[" + s.Scope + "]"
		}
		parts = append(parts, fmt.Sprintf("%s %.3gms", label, s.Duration*1e3))
	}
	return strings.Join(parts, " > ")
}

// rootGroup aggregates the trees sharing a root span name.
type rootGroup struct {
	name  string
	trees []*Tree
}

// Report writes the human-readable analysis: per-root-kind counts and
// latency quantiles, critical-path phase/route attribution, p99
// outlier exemplars, and completeness counters.
func Report(w io.Writer, f *Forest) {
	fmt.Fprintf(w, "traces: %d  orphan spans: %d  rootless: %d  multi-root: %d  dangling events: %d\n",
		len(f.Trees), f.OrphanSpans, f.Rootless, f.MultiRoot, f.DanglingEvents)

	groups := make(map[string]*rootGroup)
	var order []string
	for _, t := range f.Trees {
		if t.Root == nil {
			continue
		}
		g := groups[t.Root.Name]
		if g == nil {
			g = &rootGroup{name: t.Root.Name}
			groups[t.Root.Name] = g
			order = append(order, t.Root.Name)
		}
		g.trees = append(g.trees, t)
	}
	sort.Strings(order)

	for _, name := range order {
		g := groups[name]
		durs := make([]float64, 0, len(g.trees))
		phase := make(map[string]float64)
		route := make(map[string]float64)
		events := make(map[string]int)
		errored := 0
		for _, t := range g.trees {
			durs = append(durs, t.Root.Duration)
			if t.Errored() {
				errored++
			}
			var walk func(n *Node)
			walk = func(n *Node) {
				if n != t.Root && n.ParentID == t.Root.SpanID {
					phase[n.Name] += n.Duration
				}
				if strings.Contains(n.Scope, "->") {
					route[n.Scope] += n.Duration
				}
				for _, ev := range n.Events {
					events[ev.Stage]++
				}
				for _, c := range n.Children {
					walk(c)
				}
			}
			walk(t.Root)
		}
		sort.Float64s(durs)
		fmt.Fprintf(w, "\n%s: %d trace(s), %d errored; root latency p50 %.3gms p99 %.3gms\n",
			g.name, len(g.trees), errored,
			quantile(durs, 0.50)*1e3, quantile(durs, 0.99)*1e3)
		writeTop(w, "  phase time", phase, 8)
		writeTop(w, "  route time", route, 8)
		if len(events) > 0 {
			keys := make([]string, 0, len(events))
			for k := range events {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			fmt.Fprintf(w, "  events:")
			for _, k := range keys {
				fmt.Fprintf(w, " %s=%d", k, events[k])
			}
			fmt.Fprintln(w)
		}
		// p99 outliers: the slowest roots above the p99 cut, with their
		// critical paths — the "why was THIS one slow" exemplars.
		cut := quantile(durs, 0.99)
		outliers := make([]*Tree, 0, 4)
		for _, t := range g.trees {
			if t.Root.Duration >= cut {
				outliers = append(outliers, t)
			}
		}
		sort.Slice(outliers, func(i, j int) bool {
			return outliers[i].Root.Duration > outliers[j].Root.Duration
		})
		if len(outliers) > 3 {
			outliers = outliers[:3]
		}
		for _, t := range outliers {
			fmt.Fprintf(w, "  p99 outlier %s: %s\n", t.TraceID, PathString(t.CriticalPath()))
		}
	}
}

// writeTop prints the largest k entries of a duration-by-key map.
func writeTop(w io.Writer, label string, m map[string]float64, k int) {
	if len(m) == 0 {
		return
	}
	type kv struct {
		key string
		v   float64
	}
	items := make([]kv, 0, len(m))
	for key, v := range m {
		items = append(items, kv{key, v})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].v != items[j].v {
			return items[i].v > items[j].v
		}
		return items[i].key < items[j].key
	})
	if len(items) > k {
		items = items[:k]
	}
	fmt.Fprintf(w, "%s:", label)
	for _, it := range items {
		fmt.Fprintf(w, " %s=%.3gms", it.key, it.v*1e3)
	}
	fmt.Fprintln(w)
}

// quantile reads the q-quantile of a sorted slice (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
