package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"qosres/internal/obs"
	"qosres/internal/sim"
	"qosres/internal/spec"
)

// servedCycle establishes body through the handler and tears the
// session down again, in-process; it reports whether the establish was
// admitted (a 409 refusal is an outcome, not a failure).
func servedCycle(t *testing.T, s *served, body []byte) bool {
	rec := httptest.NewRecorder()
	s.handleEstablish(rec, httptest.NewRequest(http.MethodPost, "/establish", bytes.NewReader(body)))
	switch rec.Code {
	case http.StatusOK:
	case http.StatusConflict:
		return false
	default:
		t.Fatalf("establish: status %d: %s", rec.Code, rec.Body)
	}
	var est establishReply
	if err := json.Unmarshal(rec.Body.Bytes(), &est); err != nil {
		t.Fatalf("establish reply %q: %v", rec.Body, err)
	}
	rec = httptest.NewRecorder()
	s.handleTeardown(rec, httptest.NewRequest(http.MethodPost, "/teardown?id="+est.ID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("teardown %s: status %d: %s", est.ID, rec.Code, rec.Body)
	}
	return true
}

// TestServedCountRatchet pins what one served establish and teardown
// costs the front end, measured in-process (no subprocess, no WAL) over
// the 1,024 offers GET /spec hands out on the seed-1 deployment, after
// one warm pass. Every distinct service model is built and compiled
// once, so the measured pass hits compiled templates, and the whole
// cycle stays within an allocation ceiling; a change that rebuilds
// models per request or leaks template keys fails here.
func TestServedCountRatchet(t *testing.T) {
	reg := obs.New()
	env, err := sim.NewServedEnv(sim.ServedOptions{Seed: 1, LeaseTTL: 600, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	s := newServed(env)

	const offers = 1024
	bodies := make([][]byte, offers)
	bindings := map[string]bool{}
	pairs := map[string]bool{}
	for i := range bodies {
		o, err := env.SampleSession()
		if err != nil {
			t.Fatal(err)
		}
		if bodies[i], err = json.Marshal(map[string]any{"mainHost": o.MainHost, "session": o.Doc}); err != nil {
			t.Fatal(err)
		}
		binding := fmt.Sprint(o.Binding)
		bindings[binding] = true
		pairs[fmt.Sprintf("%p %s", o.Service, binding)] = true
	}
	next := 0
	cycle := func() {
		servedCycle(t, s, bodies[next%offers])
		next++
	}
	admitted := 0
	for _, body := range bodies {
		if servedCycle(t, s, body) {
			admitted++
		}
	}
	if admitted == 0 {
		t.Fatal("warm pass admitted nothing")
	}

	hits := reg.Counter(obs.MetricTemplateHits, "")
	misses := reg.Counter(obs.MetricTemplateMisses, "")
	hits0, misses0 := hits.Value(), misses.Value()
	allocs := testing.AllocsPerRun(offers, cycle)
	h, m := hits.Value()-hits0, misses.Value()-misses0
	templates := templatesCached(reg)
	t.Logf("%.0f allocs/cycle, template hits %.0f misses %.0f, %d templates for %d (service, binding) pairs, %d models, %d bindings",
		allocs, h, m, templates, len(pairs), s.models.Len(), len(bindings))

	// The race detector instruments allocations, so the ceiling is only
	// meaningful in a plain build.
	const ceiling = 167
	if allocs > ceiling && !raceEnabled {
		t.Errorf("%.0f allocations per establish+teardown cycle, ceiling %d", allocs, ceiling)
	}
	if ratio := h / (h + m); h+m == 0 || ratio < 0.99 {
		t.Errorf("template hit ratio %.3f over the measured pass, want >= 0.99", ratio)
	}
	if templates > len(pairs) || templates > 12*len(bindings) {
		t.Errorf("%d templates resident for %d distinct (service, binding) pairs", templates, len(pairs))
	}
	if n := s.models.Len(); n != 12 {
		t.Errorf("catalog holds %d service models, want the deployment's 12", n)
	}
}

// TestEstablishDecodeAllocs: on a warm catalog, decoding a session
// request and building its model and binding allocates nothing, over
// every one of the 1,024 offers GET /spec hands out on the seed-1
// deployment.
func TestEstablishDecodeAllocs(t *testing.T) {
	env, err := sim.NewServedEnv(sim.ServedOptions{Seed: 1, LeaseTTL: 600})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	const offers = 1024
	bodies := make([][]byte, offers)
	for i := range bodies {
		o, err := env.SampleSession()
		if err != nil {
			t.Fatal(err)
		}
		if bodies[i], err = json.Marshal(map[string]any{"mainHost": o.MainHost, "session": o.Doc}); err != nil {
			t.Fatal(err)
		}
	}
	catalog := spec.NewCatalog()
	req := establishes.Get().(*spec.EstablishRequest)
	defer putEstablish(req)
	next := 0
	decodeBuild := func() {
		if err := req.Decode(bodies[next%offers]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := catalog.Build(req.Session); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for range bodies {
		decodeBuild()
	}
	if allocs := testing.AllocsPerRun(offers, decodeBuild); allocs != 0 && !raceEnabled {
		t.Errorf("%.2f allocations per warm decode + Build, want 0", allocs)
	}
}

// FuzzSessionIDQuery holds sessionID to url.ParseQuery(q).Get("id").
func FuzzSessionIDQuery(f *testing.F) {
	for _, seed := range []string{
		"", "id=s-1", "id=s-1&id=s-2", "x=1&id=s-2", "id", "id=", "=s-1",
		"id=s%2D1", "i%64=s-1", "id=a+b", "id=%zz&id=s-2", "%zz=1&id=s-3",
		"id=s-1;x=2&id=s-2", "id=%", "&&id=s-4&", "id=s-5=6", "ID=s-6",
		"id=%E2%82%AC", "id=%2", "x=%zz",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, q string) {
		values, _ := url.ParseQuery(q)
		if got, want := sessionID(q), values.Get("id"); got != want {
			t.Fatalf("sessionID(%q) = %q, url.ParseQuery gives %q", q, got, want)
		}
	})
}

// TestServedSampledEstablishSharesTemplates: an empty-body establish
// admits the environment's own model and binding, so 200 of them
// compile at most one template per distinct (service, binding) pair
// drawn — not one per request for a freshly built model. The draws are
// replayed on a twin deployment of the same seed, whose sampler yields
// the same sequence.
func TestServedSampledEstablishSharesTemplates(t *testing.T) {
	reg := obs.New()
	env, err := sim.NewServedEnv(sim.ServedOptions{Seed: 7, LeaseTTL: 600, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	twin, err := sim.NewServedEnv(sim.ServedOptions{Seed: 7, LeaseTTL: 600})
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	s := newServed(env)

	pairs := map[string]bool{}
	for i := 0; i < 200; i++ {
		o, err := twin.SampleSession()
		if err != nil {
			t.Fatal(err)
		}
		pairs[fmt.Sprintf("%p %v", o.Service, o.Binding)] = true
		rec := httptest.NewRecorder()
		s.handleEstablish(rec, httptest.NewRequest(http.MethodPost, "/establish", nil))
		if rec.Code == http.StatusConflict {
			continue
		}
		var est establishReply
		if err := json.Unmarshal(rec.Body.Bytes(), &est); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("establish %d: status %d: %s", i, rec.Code, rec.Body)
		}
		if est.Service != o.Service.Name || est.MainHost != string(o.MainHost) {
			t.Fatalf("establish %d drew %s on %s, the twin %s on %s", i, est.Service, est.MainHost, o.Service.Name, o.MainHost)
		}
		rec = httptest.NewRecorder()
		s.handleTeardown(rec, httptest.NewRequest(http.MethodPost, "/teardown?id="+est.ID, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("teardown %s: status %d: %s", est.ID, rec.Code, rec.Body)
		}
	}
	if templates := templatesCached(reg); templates > len(pairs) {
		t.Fatalf("%d templates resident after 200 sampled establishes of %d distinct (service, binding) pairs", templates, len(pairs))
	}
}

// templatesCached reads the resident template gauge.
func templatesCached(reg *obs.Registry) int {
	for _, g := range reg.Snapshot().Gauges {
		if g.Name == obs.MetricTemplatesCached {
			return int(g.Value)
		}
	}
	return 0
}
