package sim

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"qosres/internal/qrg"
	"qosres/internal/svc"
	"qosres/internal/workload"
)

// oracleResourceSet is the resource set admission used to derive from
// the session on every request, before the compiled template recorded
// it: every binding target of every component, once each, components in
// ComponentIDs order (and, within one, in map order).
func oracleResourceSet(service *svc.Service, binding svc.Binding) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	for _, cid := range service.ComponentIDs() {
		for _, concrete := range binding[cid] {
			if !seen[concrete] {
				seen[concrete] = true
				out = append(out, concrete)
			}
		}
	}
	if len(out) == 0 {
		return nil, errors.New("binding names no resources")
	}
	return out, nil
}

// TestCompiledDerivationsExact: what Compile derives once per (service,
// binding) pair is what admission derived per request. Over the 1,024
// offers of the seed-1 served deployment, every figure-10 service
// variant at every placement, and the video and DAG examples, the
// template's resources are the oracle's set, once each and grouped in
// its component order, and its graphs carry svc.Service.IsChain as
// their chain mark.
func TestCompiledDerivationsExact(t *testing.T) {
	se, err := NewServedEnv(ServedOptions{Seed: 1, LeaseTTL: 600})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	type pair struct {
		label   string
		service *svc.Service
		binding svc.Binding
	}
	var pairs []pair
	for i := 0; i < 1024; i++ {
		o, err := se.SampleSession()
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, pair{fmt.Sprintf("offer %d", i), o.Service, o.Binding})
	}
	for s, variants := range se.env.services {
		for m, service := range variants {
			for d := range se.env.placements[s] {
				pairs = append(pairs, pair{fmt.Sprintf("S%d variant %d domain %d", s+1, m, d+1),
					service, se.env.placements[s][d].binding})
			}
		}
	}
	pairs = append(pairs,
		pair{"video", workload.VideoService(), workload.VideoBinding()},
		pair{"dag", workload.DagService(), workload.DagBinding()})

	chains := map[bool]int{}
	for _, p := range pairs {
		want, err := oracleResourceSet(p.service, p.binding)
		if err != nil {
			t.Fatalf("%s: %v", p.label, err)
		}
		tpl, err := qrg.Compile(p.service, p.binding)
		if err != nil {
			t.Fatalf("%s: %v", p.label, err)
		}
		got := tpl.Resources()
		if msg := resourceSetDiff(p.service, p.binding, want, got); msg != "" {
			t.Fatalf("%s: %s", p.label, msg)
		}

		snap, err := se.env.pool.Snapshot(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		g, err := tpl.Instantiate(snap)
		if err != nil {
			t.Fatalf("%s: %v", p.label, err)
		}
		if g.Chain != p.service.IsChain() {
			t.Fatalf("%s: chain mark %v, IsChain %v", p.label, g.Chain, p.service.IsChain())
		}
		chains[g.Chain]++
		tpl.Recycle(g)
	}
	if chains[true] == 0 || chains[false] == 0 {
		t.Fatalf("chain marks %v: both kinds of service must be checked", chains)
	}
}

// resourceSetDiff describes how got differs from the oracle's want: a
// different set, a resource listed twice, or a resource ahead of one
// that an earlier component (in ComponentIDs order) binds first.
func resourceSetDiff(service *svc.Service, binding svc.Binding, want, got []string) string {
	first := map[string]int{}
	for i, cid := range service.ComponentIDs() {
		for _, r := range binding[cid] {
			if _, ok := first[r]; !ok {
				first[r] = i
			}
		}
	}
	w := append([]string(nil), want...)
	g := append([]string(nil), got...)
	sort.Strings(w)
	sort.Strings(g)
	if !reflect.DeepEqual(w, g) {
		return fmt.Sprintf("resources %v, oracle %v", got, want)
	}
	for i := 1; i < len(got); i++ {
		if first[got[i]] < first[got[i-1]] {
			return fmt.Sprintf("resources %v out of component order (oracle %v)", got, want)
		}
	}
	return ""
}
