package proxy

import (
	"errors"
	"sync"
	"testing"
	"time"

	"qosres/internal/broker"
	"qosres/internal/core"
	"qosres/internal/obs"
	"qosres/internal/qrg"
	"qosres/internal/svc"
	"qosres/internal/topo"
	"qosres/internal/workload"
)

// This integration test proves the runtime architecture is a faithful
// distributed implementation of the library path: a fixed sequence of
// figure-9 sessions establishes once through the QoSProxy protocol
// (goroutines + messages) and once through direct Pool calls, against
// two identical environments. Every step must produce the same plan and
// leave the two environments in the same state.

// buildMirrorEnvs creates two identical figure-9 environments: one
// exposed through a Runtime, one as a bare Pool.
func buildMirrorEnvs(t *testing.T, clock Clock) (*Runtime, *broker.Pool, *broker.Pool) {
	t.Helper()
	topology := topo.Figure9()
	capacities := map[string]float64{}
	for i := 1; i <= topo.NumServers; i++ {
		capacities[broker.LocalResourceID(workload.ResCPU, topo.ServerHost(i))] = 1500 + float64(i)*400
	}
	for j, l := range topology.Links() {
		capacities[broker.LinkResourceID(l.ID)] = 1200 + float64(j)*150
	}

	mkPool := func() *broker.Pool {
		pool := broker.NewPool(topology)
		for i := 1; i <= topo.NumServers; i++ {
			h := topo.ServerHost(i)
			if _, err := pool.AddLocal(workload.ResCPU, h, capacities[broker.LocalResourceID(workload.ResCPU, h)]); err != nil {
				t.Fatal(err)
			}
		}
		for _, l := range topology.Links() {
			if _, err := pool.AddLink(l.ID, capacities[broker.LinkResourceID(l.ID)]); err != nil {
				t.Fatal(err)
			}
		}
		return pool
	}

	runtimePool := mkPool()
	directPool := mkPool()

	rt := NewRuntime(clock, Options{})
	for _, h := range topology.Hosts() {
		if _, err := rt.AddHost(h); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= topo.NumServers; i++ {
		h := topo.ServerHost(i)
		b, _ := runtimePool.Get(broker.LocalResourceID(workload.ResCPU, h))
		if err := rt.Deploy(h, b); err != nil {
			t.Fatal(err)
		}
	}
	// Network brokers for every (server, proxy) pair and every
	// (proxy, domain) pair, deployed receiver-side. Both pools create
	// them so their Get() works.
	deployNet := func(from, to topo.HostID) {
		n, err := runtimePool.Network(from, to)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := directPool.Network(from, to); err != nil {
			t.Fatal(err)
		}
		if err := rt.Deploy(to, n); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= topo.NumServers; i++ {
		for j := 1; j <= topo.NumServers; j++ {
			if i != j {
				deployNet(topo.ServerHost(i), topo.ServerHost(j))
			}
		}
	}
	for d := 1; d <= topo.NumDomains; d++ {
		deployNet(topo.ServerHost(topo.ProxyServerFor(d)), topo.DomainHost(d))
	}
	return rt, runtimePool, directPool
}

func TestRuntimeMatchesDirectLibraryPath(t *testing.T) {
	clock := &ManualClock{}
	rt, _, directPool := buildMirrorEnvs(t, clock)
	rt.Start()
	defer rt.Stop()

	services := workload.Services(workload.Options{BaseScale: 20})

	type sessionKey struct{ domain, service int }
	var seq []sessionKey
	for d := 1; d <= topo.NumDomains; d++ {
		for s := 1; s <= 4; s++ {
			if s != topo.ProxyServerFor(d) {
				seq = append(seq, sessionKey{d, s})
			}
		}
	}
	// Three rounds drive the environments into contention.
	seq = append(append(seq, seq...), seq...)

	var live []*Session
	var directHolds []*broker.MultiReservation
	planner := core.Basic{}
	matched := 0
	for step, k := range seq {
		clock.Advance(1)
		now := clock.Now()
		service := services[k.service]
		binding, resources := fig9Binding(k.service, k.domain)

		// Direct path.
		snap, err := directPool.Snapshot(now, resources)
		if err != nil {
			t.Fatal(err)
		}
		g, err := qrg.Build(service, binding, snap)
		if err != nil {
			t.Fatal(err)
		}
		directPlan, directErr := planner.Plan(g)

		// Runtime path.
		session, rtErr := rt.Establish(topo.ServerHost(k.service), SessionSpec{
			Service: service, Binding: binding, Planner: planner,
		})

		if (directErr == nil) != (rtErr == nil) {
			t.Fatalf("step %d: direct err %v, runtime err %v", step, directErr, rtErr)
		}
		if directErr != nil {
			if !errors.Is(directErr, core.ErrInfeasible) {
				t.Fatal(directErr)
			}
			continue
		}
		if session.Plan.EndToEnd.Name != directPlan.EndToEnd.Name ||
			session.Plan.PathLevels != directPlan.PathLevels ||
			absDiff(session.Plan.Psi, directPlan.Psi) > 1e-9 {
			t.Fatalf("step %d: runtime plan (%s, %v) != direct plan (%s, %v)",
				step, session.Plan.PathLevels, session.Plan.Psi, directPlan.PathLevels, directPlan.Psi)
		}
		matched++
		live = append(live, session)
		hold, err := directPool.ReserveAll(now, directPlan.Requirement())
		if err != nil {
			t.Fatalf("step %d: direct reserve failed after plan success: %v", step, err)
		}
		directHolds = append(directHolds, hold)
	}
	if matched < 30 {
		t.Fatalf("only %d sessions established; contention never built up", matched)
	}

	// Both worlds drain clean.
	clock.Advance(100)
	for _, s := range live {
		if err := s.Release(); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range directHolds {
		if err := h.Release(clock.Now()); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range directPool.LocalBrokers() {
		if b.Reservations() != 0 {
			t.Errorf("direct %s leaked", b.Resource())
		}
	}
}

func fig9Binding(service, domain int) (svc.Binding, []string) {
	server := topo.ServerHost(service)
	proxyHost := topo.ServerHost(topo.ProxyServerFor(domain))
	client := topo.DomainHost(domain)
	cpuS := broker.LocalResourceID(workload.ResCPU, server)
	cpuP := broker.LocalResourceID(workload.ResCPU, proxyHost)
	netSP := broker.NetResourceID(server, proxyHost)
	netPC := broker.NetResourceID(proxyHost, client)
	return svc.Binding{
		workload.CompServer: {workload.ResCPU: cpuS},
		workload.CompProxy:  {workload.ResCPU: cpuP, workload.ResNet: netSP},
		workload.CompClient: {workload.ResNet: netPC},
	}, []string{cpuS, cpuP, netSP, netPC}
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestWallClockAdvances(t *testing.T) {
	c := NewWallClock(1000) // 1000 TU per second: measurable quickly
	t0 := c.Now()
	time.Sleep(5 * time.Millisecond)
	t1 := c.Now()
	if t1 <= t0 {
		t.Fatalf("wall clock did not advance: %v -> %v", t0, t1)
	}
	// Default scale guard.
	if NewWallClock(0) == nil {
		t.Fatal("nil clock")
	}
}

// stealPlanner wraps a planner and, on its first Plan call, reserves
// capacity directly on a target broker. Planning runs between the
// phase-1 snapshot and the phase-3 commit, so the steal deterministically
// reproduces the TOCTOU race: a concurrent session winning the resource
// after this session's snapshot was taken.
type stealPlanner struct {
	inner  core.Planner
	target *broker.Local
	amount float64
	calls  int
}

func (p *stealPlanner) Name() string { return "steal" }

func (p *stealPlanner) Plan(g *qrg.Graph) (*core.Plan, error) {
	p.calls++
	if p.calls == 1 {
		if _, err := p.target.Reserve(0, p.amount); err != nil {
			return nil, err
		}
	}
	return p.inner.Plan(g)
}

// TestEstablishCommitRefusalRollsBackEverything pins the fail-fast
// contract: when the planned requirement no longer fits at commit time
// and the policy allows no retry, Establish fails with
// broker.ErrInsufficient and leaves zero residual holds on every broker
// of the plan — including the ones that individually had room.
func TestEstablishCommitRefusalRollsBackEverything(t *testing.T) {
	reg := obs.New()
	admit := obs.NewAdmitMetrics(reg)
	rt, _, brokers := twoHostWorld(t, Options{AdmitPolicy: &AdmitPolicy{MaxRetries: 0}, Admission: admit})
	service, binding := pipelineService(t)

	// The basic planner picks lo→best (cpu@X 10, cpu@Y 35, net 25, Ψ
	// 0.35). Stealing 80 net units mid-plan leaves 20 < 25 at commit.
	planner := &stealPlanner{inner: core.Basic{}, target: brokers["net:X->Y"], amount: 80}
	_, err := rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: planner})
	if !errors.Is(err, broker.ErrInsufficient) {
		t.Fatalf("err = %v, want broker.ErrInsufficient through the retry-exhausted wrapper", err)
	}
	if planner.calls != 1 {
		t.Fatalf("planner ran %d times under MaxRetries=0, want 1", planner.calls)
	}
	// The cpu brokers had room; the atomic commit must not have touched
	// them. The only reservation anywhere is the steal itself.
	if got := brokers["cpu@X"].Available(); got != 100 {
		t.Errorf("cpu@X = %v after refusal, want 100", got)
	}
	if got := brokers["cpu@Y"].Available(); got != 100 {
		t.Errorf("cpu@Y = %v after refusal, want 100", got)
	}
	if got := brokers["net:X->Y"].Available(); got != 20 {
		t.Errorf("net = %v after refusal, want 20 (steal only)", got)
	}
	for r, b := range brokers {
		want := 0
		if r == "net:X->Y" {
			want = 1 // the steal
		}
		if b.Reservations() != want {
			t.Errorf("%s holds %d reservations, want %d", r, b.Reservations(), want)
		}
	}
	if v := admit.StaleRejects.Value(); v != 1 {
		t.Errorf("stale rejects = %v, want 1", v)
	}
	if v := admit.Rollbacks.Value(); v != 1 {
		t.Errorf("rollbacks = %v, want 1", v)
	}
	if v := admit.Retries.Value(); v != 0 {
		t.Errorf("retries = %v, want 0 under fail-fast", v)
	}
}

// TestEstablishRetriesWithFreshSnapshot pins the replanning contract:
// after a commit-time refusal the runtime takes a fresh snapshot, plans
// against the post-race availability, and commits the degraded level.
func TestEstablishRetriesWithFreshSnapshot(t *testing.T) {
	reg := obs.New()
	admit := obs.NewAdmitMetrics(reg)
	rt, _, brokers := twoHostWorld(t, Options{AdmitPolicy: &AdmitPolicy{MaxRetries: 2}, Admission: admit})
	service, binding := pipelineService(t)

	// Attempt 1 plans lo→best (net 25) and is refused: the steal leaves
	// net at 20. Attempt 2's fresh snapshot rules out both "best" paths
	// (net 40 and 25 > 20) and plans lo→ok (cpu@X 10, cpu@Y 8, net 10),
	// which commits.
	planner := &stealPlanner{inner: core.Basic{}, target: brokers["net:X->Y"], amount: 80}
	s, err := rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: planner})
	if err != nil {
		t.Fatalf("Establish with retries: %v", err)
	}
	if s.Plan.EndToEnd.Name != "ok" {
		t.Fatalf("retried plan level = %s, want ok (degraded after the race)", s.Plan.EndToEnd.Name)
	}
	if planner.calls != 2 {
		t.Fatalf("planner ran %d times, want 2 (original + one retry)", planner.calls)
	}
	if got := brokers["cpu@X"].Available(); got != 90 {
		t.Errorf("cpu@X = %v, want 90", got)
	}
	if got := brokers["cpu@Y"].Available(); got != 92 {
		t.Errorf("cpu@Y = %v, want 92", got)
	}
	if got := brokers["net:X->Y"].Available(); got != 10 {
		t.Errorf("net = %v, want 10 (80 stolen + 10 committed)", got)
	}
	if v := admit.Retries.Value(); v != 1 {
		t.Errorf("retries = %v, want 1", v)
	}
	if v := admit.StaleRejects.Value(); v != 1 {
		t.Errorf("stale rejects = %v, want 1", v)
	}
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
	if got := brokers["net:X->Y"].Available(); got != 20 {
		t.Errorf("net = %v after release, want 20", got)
	}
}

// TestEstablishRetryExhaustionKeepsErrInsufficient pins the error
// contract: when every attempt is refused at commit time and the retry
// budget runs out, the terminal error still matches
// broker.ErrInsufficient via errors.Is, so callers classify it without
// string matching.
func TestEstablishRetryExhaustionKeepsErrInsufficient(t *testing.T) {
	reg := obs.New()
	admit := obs.NewAdmitMetrics(reg)
	rt, _, brokers := twoHostWorld(t, Options{AdmitPolicy: &AdmitPolicy{MaxRetries: 1}, Admission: admit})
	service, binding := pipelineService(t)

	// Attempt 1 snapshots net=100 and plans lo→best (net 25); the drain
	// leaves 24 < 25 → refused. Attempt 2 snapshots 24 and plans lo→ok
	// (net 10); the drain leaves 5 < 10 → refused again. The budget (1
	// retry) is exhausted with a commit refusal both times.
	planner := &drainPlanner{inner: core.Basic{}, target: brokers["net:X->Y"], leave: []float64{24, 5}}
	_, err := rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: planner})
	if !errors.Is(err, broker.ErrInsufficient) {
		t.Fatalf("terminal err = %v, want broker.ErrInsufficient", err)
	}
	if planner.calls != 2 {
		t.Fatalf("planner ran %d times, want 2 (MaxRetries=1)", planner.calls)
	}
	if v := admit.StaleRejects.Value(); v != 2 {
		t.Errorf("stale rejects = %v, want 2", v)
	}
	if v := admit.Retries.Value(); v != 1 {
		t.Errorf("retries = %v, want 1", v)
	}
	// Only the drains remain; the session itself left nothing behind.
	if got, want := brokers["cpu@X"].Available(), 100.0; got != want {
		t.Errorf("cpu@X = %v after exhaustion, want %v", got, want)
	}
	if got, want := brokers["cpu@Y"].Available(), 100.0; got != want {
		t.Errorf("cpu@Y = %v after exhaustion, want %v", got, want)
	}
	if got, want := brokers["net:X->Y"].Available(), 5.0; got != want {
		t.Errorf("net = %v after exhaustion, want %v (drains only)", got, want)
	}
}

// drainPlanner reserves the target broker down to leave[i] units on its
// i-th Plan call, so each fresh snapshot is stale again by commit time.
type drainPlanner struct {
	inner  core.Planner
	target *broker.Local
	leave  []float64
	calls  int
}

func (p *drainPlanner) Name() string { return "drain" }

func (p *drainPlanner) Plan(g *qrg.Graph) (*core.Plan, error) {
	if p.calls < len(p.leave) {
		if take := p.target.Available() - p.leave[p.calls]; take > 0 {
			if _, err := p.target.Reserve(0, take); err != nil {
				return nil, err
			}
		}
	}
	p.calls++
	return p.inner.Plan(g)
}

// TestGroupCommitContentionStress is the commit-path correctness harness
// under contention (run under -race): many goroutines push overlapping
// plans through Establish at once against under-provisioned brokers.
// Every admission must be all-or-nothing, refused ones must leave no
// residue, and the final books must be exactly what serially admitting
// the same winning plans onto fresh books produces — hold for hold.
func TestGroupCommitContentionStress(t *testing.T) {
	if testing.Short() {
		t.Skip("contention stress skipped in -short")
	}
	const (
		goroutines = 24
		perG       = 20
		capacity   = 400
	)
	rt, _, brokers := twoHostWorld(t, Options{})
	for r, b := range brokers {
		if err := b.SetCapacity(0, capacity); err != nil {
			t.Fatalf("%s: %v", r, err)
		}
	}
	service, binding := pipelineService(t)
	spec := SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}}

	var mu sync.Mutex
	var kept []*Session
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s, err := rt.Establish("X", spec)
				if err != nil {
					continue
				}
				// Keep a slice of the winners to stress refusals against
				// standing load; release the rest immediately for churn.
				if (g+i)%3 == 0 {
					mu.Lock()
					kept = append(kept, s)
					mu.Unlock()
					continue
				}
				if err := s.Release(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if len(kept) == 0 {
		t.Fatal("stress admitted no standing session")
	}

	// Replay the surviving sessions' plans serially onto fresh books:
	// the concurrent books must match hold for hold.
	replay := map[string]*broker.Local{}
	for r := range brokers {
		b, err := broker.NewLocal(r, capacity)
		if err != nil {
			t.Fatal(err)
		}
		replay[r] = b
	}
	resolve := func(r string) (broker.Broker, bool) {
		b, ok := replay[r]
		return b, ok
	}
	for _, s := range kept {
		if _, err := broker.ReserveAtomic(0, resolve, s.Plan.Requirement()); err != nil {
			t.Fatalf("serial replay refused a concurrently admitted plan: %v", err)
		}
	}
	for r, b := range brokers {
		got, want := b.HoldAmounts(), replay[r].HoldAmounts()
		if len(got) != len(want) {
			t.Fatalf("%s: %d holds, serial replay has %d", r, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: hold multiset diverged from serial replay: %v vs %v", r, got, want)
			}
		}
		if b.Available() < 0 {
			t.Fatalf("%s overbooked: %v", r, b.Available())
		}
	}

	for _, s := range kept {
		if err := s.Release(); err != nil {
			t.Fatal(err)
		}
	}
	for r, b := range brokers {
		if b.Available() != capacity {
			t.Errorf("%s not restored: %v", r, b.Available())
		}
		if b.Reservations() != 0 {
			t.Errorf("%s leaked %d reservations", r, b.Reservations())
		}
	}
}
