// Package topo provides the simulated network substrate: hosts, network
// links, and static routing between hosts. It models the environment of
// figure 9 of the paper — high performance servers, client domains, and
// the high speed links connecting them — and supplies the link paths over
// which two-level end-to-end network resources are composed (section 3).
package topo

import (
	"fmt"
	"sort"
)

// HostID identifies an end host (a server such as H1, or a client domain
// gateway such as D3 — the paper abstracts all client machines of a domain
// behind their domain).
type HostID string

// LinkID identifies a network link, e.g. L7.
type LinkID string

// Link is an undirected network link between two hosts.
type Link struct {
	ID   LinkID
	A, B HostID
}

// Other returns the endpoint of the link opposite to h.
func (l Link) Other(h HostID) (HostID, bool) {
	switch h {
	case l.A:
		return l.B, true
	case l.B:
		return l.A, true
	}
	return "", false
}

// Topology is an undirected multigraph of hosts and links with
// precomputed minimum-hop routes between every pair of hosts. Routes are
// deterministic: among equal-hop-count paths the one visiting
// lexicographically smaller link IDs first wins.
type Topology struct {
	hosts []HostID
	links map[LinkID]Link
	adj   map[HostID][]Link
	// routes[a][b] is the ordered list of link IDs on the route a->b.
	routes map[HostID]map[HostID][]LinkID
}

// New builds a topology from hosts and links and precomputes all routes.
func New(hosts []HostID, links []Link) (*Topology, error) {
	t := &Topology{
		links:  make(map[LinkID]Link, len(links)),
		adj:    make(map[HostID][]Link, len(hosts)),
		routes: make(map[HostID]map[HostID][]LinkID, len(hosts)),
	}
	seen := make(map[HostID]bool, len(hosts))
	for _, h := range hosts {
		if h == "" {
			return nil, fmt.Errorf("topo: empty host ID")
		}
		if seen[h] {
			return nil, fmt.Errorf("topo: duplicate host %s", h)
		}
		seen[h] = true
		t.hosts = append(t.hosts, h)
		t.adj[h] = nil
	}
	for _, l := range links {
		if l.ID == "" {
			return nil, fmt.Errorf("topo: empty link ID")
		}
		if _, dup := t.links[l.ID]; dup {
			return nil, fmt.Errorf("topo: duplicate link %s", l.ID)
		}
		if !seen[l.A] || !seen[l.B] {
			return nil, fmt.Errorf("topo: link %s references unknown host (%s-%s)", l.ID, l.A, l.B)
		}
		if l.A == l.B {
			return nil, fmt.Errorf("topo: link %s is a self-loop on %s", l.ID, l.A)
		}
		t.links[l.ID] = l
		t.adj[l.A] = append(t.adj[l.A], l)
		t.adj[l.B] = append(t.adj[l.B], l)
	}
	for h := range t.adj {
		ls := t.adj[h]
		sort.Slice(ls, func(i, j int) bool { return ls[i].ID < ls[j].ID })
	}
	if err := t.computeRoutes(); err != nil {
		return nil, err
	}
	return t, nil
}

// MustNew is New that panics on error, for static environments.
func MustNew(hosts []HostID, links []Link) *Topology {
	t, err := New(hosts, links)
	if err != nil {
		panic(err)
	}
	return t
}

// computeRoutes runs BFS from every host. BFS visits neighbors in sorted
// link-ID order, making routes deterministic.
func (t *Topology) computeRoutes() error {
	for _, src := range t.hosts {
		type hop struct {
			via  LinkID
			prev HostID
		}
		parent := map[HostID]hop{src: {}}
		queue := []HostID{src}
		for len(queue) > 0 {
			h := queue[0]
			queue = queue[1:]
			for _, l := range t.adj[h] {
				nxt, _ := l.Other(h)
				if _, done := parent[nxt]; done {
					continue
				}
				parent[nxt] = hop{via: l.ID, prev: h}
				queue = append(queue, nxt)
			}
		}
		t.routes[src] = make(map[HostID][]LinkID, len(t.hosts))
		for _, dst := range t.hosts {
			if dst == src {
				t.routes[src][dst] = nil
				continue
			}
			p, ok := parent[dst]
			if !ok {
				return fmt.Errorf("topo: host %s unreachable from %s", dst, src)
			}
			var path []LinkID
			for cur := dst; cur != src; {
				path = append(path, p.via)
				cur = p.prev
				p = parent[cur]
			}
			// Reverse into src->dst order.
			for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
				path[i], path[j] = path[j], path[i]
			}
			t.routes[src][dst] = path
		}
	}
	return nil
}

// Hosts returns all host IDs in definition order.
func (t *Topology) Hosts() []HostID {
	out := make([]HostID, len(t.hosts))
	copy(out, t.hosts)
	return out
}

// Links returns all links sorted by ID.
func (t *Topology) Links() []Link {
	out := make([]Link, 0, len(t.links))
	for _, l := range t.links {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Link returns the link with the given ID.
func (t *Topology) Link(id LinkID) (Link, bool) {
	l, ok := t.links[id]
	return l, ok
}

// Route returns the ordered link IDs of the minimum-hop route from a to
// b. The route from a host to itself is empty.
func (t *Topology) Route(a, b HostID) ([]LinkID, error) {
	m, ok := t.routes[a]
	if !ok {
		return nil, fmt.Errorf("topo: unknown host %s", a)
	}
	p, ok := m[b]
	if !ok {
		return nil, fmt.Errorf("topo: unknown host %s", b)
	}
	out := make([]LinkID, len(p))
	copy(out, p)
	return out, nil
}

// Hops returns the number of links on the route from a to b.
func (t *Topology) Hops(a, b HostID) (int, error) {
	p, err := t.Route(a, b)
	if err != nil {
		return 0, err
	}
	return len(p), nil
}
