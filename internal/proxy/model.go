package proxy

import (
	"context"
	"fmt"
	"sort"

	"qosres/internal/core"
	"qosres/internal/svc"
	"qosres/internal/topo"
	"qosres/internal/transport"
)

// Section 3 gives two ways to store a service's QoS-Resource Model
// definition. The centralized approach — the whole definition at the
// main server's QoSProxy — is what Establish implements: the caller
// hands it the assembled *svc.Service. This file implements the
// distributed approach: "the Qin and Qout levels and the Translation
// Function of each service component will be stored and accessed by the
// QoSProxy of the host where the service component runs". The main
// QoSProxy holds only the service skeleton (component placement, the
// dependency graph, and the end-to-end ranking) and fetches each
// component's definition from its host's proxy in an extra protocol
// phase before planning.

// Skeleton is the service-independent part of a distributed model: the
// shape of the service without the per-component level sets and
// translation functions.
type Skeleton struct {
	// Name of the service.
	Name string
	// Placement maps each component to the host whose QoSProxy stores
	// (and runs) it.
	Placement map[svc.ComponentID]topo.HostID
	// Edges is the dependency graph.
	Edges []svc.Edge
	// Ranking orders the end-to-end QoS levels best-first.
	Ranking []string
}

// modelRequest asks a proxy for the definitions of components it hosts.
type modelRequest struct {
	service string
	comps   []svc.ComponentID
}

type modelReply struct {
	comps []*svc.Component
	err   error
}

// StoreComponent registers one component's definition with the proxy of
// the host where the component runs. Must be called before Start.
func (rt *Runtime) StoreComponent(host topo.HostID, service string, comp *svc.Component) error {
	if comp == nil {
		return fmt.Errorf("proxy: nil component")
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.live.Load() != nil {
		return fmt.Errorf("proxy: runtime already started")
	}
	p, ok := rt.proxies[host]
	if !ok {
		return fmt.Errorf("proxy: no QoSProxy on host %s", host)
	}
	if p.models == nil {
		p.models = make(map[string]map[svc.ComponentID]*svc.Component)
	}
	if p.models[service] == nil {
		p.models[service] = make(map[svc.ComponentID]*svc.Component)
	}
	if _, dup := p.models[service][comp.ID]; dup {
		return fmt.Errorf("proxy: component %s of service %s already stored on %s", comp.ID, service, host)
	}
	p.models[service][comp.ID] = comp
	return nil
}

// StoreSkeleton registers a service skeleton with the main host's proxy.
// Must be called before Start.
func (rt *Runtime) StoreSkeleton(mainHost topo.HostID, sk Skeleton) error {
	if sk.Name == "" {
		return fmt.Errorf("proxy: skeleton with empty service name")
	}
	if len(sk.Placement) == 0 {
		return fmt.Errorf("proxy: skeleton %s has no component placement", sk.Name)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.live.Load() != nil {
		return fmt.Errorf("proxy: runtime already started")
	}
	p, ok := rt.proxies[mainHost]
	if !ok {
		return fmt.Errorf("proxy: no QoSProxy on host %s", mainHost)
	}
	for comp, host := range sk.Placement {
		if _, ok := rt.proxies[host]; !ok {
			return fmt.Errorf("proxy: skeleton %s places %s on unknown host %s", sk.Name, comp, host)
		}
	}
	if p.skeletons == nil {
		p.skeletons = make(map[string]Skeleton)
	}
	if _, dup := p.skeletons[sk.Name]; dup {
		return fmt.Errorf("proxy: skeleton %s already stored on %s", sk.Name, mainHost)
	}
	p.skeletons[sk.Name] = sk
	return nil
}

// handleModel answers a model request from the proxy's model store,
// which is fixed once the runtime starts.
func (p *QoSProxy) handleModel(req modelRequest) modelReply {
	store := p.models[req.service]
	if store == nil {
		return modelReply{err: fmt.Errorf("proxy %s: no components of service %s stored here", p.host, req.service)}
	}
	out := make([]*svc.Component, 0, len(req.comps))
	for _, id := range req.comps {
		comp, ok := store[id]
		if !ok {
			return modelReply{err: fmt.Errorf("proxy %s: component %s of service %s not stored here", p.host, id, req.service)}
		}
		out = append(out, comp)
	}
	return modelReply{comps: out}
}

// assembleService is phase 0 of the distributed protocol: the main proxy
// fetches every component definition from the owning proxies (every
// request sent before the first reply is awaited) and assembles the
// validated service model.
func (rt *Runtime) assembleService(ctx context.Context, mainHost topo.HostID, sk Skeleton) (*svc.Service, error) {
	// Group components by owning host.
	byHost := make(map[topo.HostID][]svc.ComponentID)
	for comp, host := range sk.Placement {
		byHost[host] = append(byHost[host], comp)
	}
	for _, comps := range byHost {
		sort.Slice(comps, func(i, j int) bool { return comps[i] < comps[j] })
	}
	from := transport.Addr(mainHost)
	calls := make([]*transport.Pending, 0, len(byHost))
	for host, comps := range byHost {
		calls = append(calls, rt.fabric.Go(ctx, from, transport.Addr(host), msgModel, modelRequest{service: sk.Name, comps: comps}))
	}
	var all []*svc.Component
	var firstErr error
	for _, c := range calls {
		resp, err := c.Wait()
		if err == nil {
			if rep, ok := resp.(modelReply); !ok {
				err = fmt.Errorf("proxy: unexpected model reply %T", resp)
			} else {
				all = append(all, rep.comps...)
				err = rep.err
			}
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return svc.NewService(sk.Name, all, sk.Edges, sk.Ranking)
}

// EstablishDistributed establishes a session for a service whose model
// is stored in the distributed fashion: phase 0 assembles the model from
// the component-hosting proxies, then the standard three phases run.
func (rt *Runtime) EstablishDistributed(mainHost topo.HostID, serviceName string, binding svc.Binding, planner core.Planner) (*Session, error) {
	return rt.EstablishDistributedContext(context.Background(), mainHost, serviceName, binding, planner)
}

// EstablishDistributedContext is EstablishDistributed bounded by a
// context: both the phase-0 model fetch and the three-phase protocol
// observe the deadline.
func (rt *Runtime) EstablishDistributedContext(ctx context.Context, mainHost topo.HostID, serviceName string, binding svc.Binding, planner core.Planner) (*Session, error) {
	main, ok, started := rt.proxyOn(mainHost)
	if !ok {
		return nil, fmt.Errorf("proxy: no QoSProxy on main host %s", mainHost)
	}
	if !started {
		return nil, fmt.Errorf("proxy: runtime not started")
	}
	sk, ok := main.skeletons[serviceName]
	if !ok {
		return nil, fmt.Errorf("proxy: main host %s stores no skeleton for service %s", mainHost, serviceName)
	}
	service, err := rt.assembleService(ctx, mainHost, sk)
	if err != nil {
		return nil, err
	}
	return rt.EstablishContext(ctx, mainHost, SessionSpec{Service: service, Binding: binding, Planner: planner})
}
