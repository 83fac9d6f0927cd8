// Package qosres is a Go implementation of the QoS and contention-aware
// multi-resource reservation framework of Xu, Nahrstedt and Wichadakul
// (HPDC 2000): a component-based QoS-Resource Model for distributed
// services, Resource Brokers with two-level end-to-end network resource
// management, QoSProxy coordinators, and the runtime algorithms that
// compute end-to-end multi-resource reservation plans over a
// QoS-Resource Graph (QRG).
//
// The package is a facade re-exporting the library's public surface:
//
//   - the QoS-Resource Model: Vector, ResourceVector, Level, Component,
//     Service, TranslationTable, Binding;
//   - QRG construction (BuildQRG) and the planners: NewBasicPlanner
//     (max-plus Dijkstra, section 4.1), NewTradeoffPlanner (availability
//     trend policy, section 4.3.1), NewTwoPassPlanner (DAG heuristic,
//     section 4.3.2), NewRandomPlanner (contention-unaware baseline) and
//     NewExhaustivePlanner (exact embedded-graph optimum, for small
//     services);
//   - the reservation-enabled environment: Pool, Local and Network
//     brokers, Topology;
//   - the QoSProxy runtime architecture: Runtime, Session;
//   - the paper's simulation study: SimConfig, RunSimulation.
//
// See README.md for a quickstart and DESIGN.md for the system inventory.
package qosres

import (
	"io"
	"math/rand"

	"qosres/internal/broker"
	"qosres/internal/core"
	"qosres/internal/proxy"
	"qosres/internal/qos"
	"qosres/internal/qrg"
	"qosres/internal/sim"
	"qosres/internal/svc"
	"qosres/internal/topo"
	"qosres/internal/trace"
)

// QoS-Resource Model types (sections 2.1-2.2).
type (
	// Vector is an application-level QoS vector of discrete parameters.
	Vector = qos.Vector
	// Param is one named QoS parameter.
	Param = qos.Param
	// Ordering is the result of a partial-order comparison.
	Ordering = qos.Ordering
	// ResourceVector is a resource requirement/availability vector.
	ResourceVector = qos.ResourceVector
	// Level is one discrete QoS level of a component's Qin or Qout.
	Level = svc.Level
	// Component is a service component with its translation function.
	Component = svc.Component
	// ComponentID names a component within a service.
	ComponentID = svc.ComponentID
	// Service is a distributed service: components plus dependency graph.
	Service = svc.Service
	// ServiceEdge is a dependency edge between two components.
	ServiceEdge = svc.Edge
	// TranslationFunc is a component's T_c plug-in function.
	TranslationFunc = svc.TranslationFunc
	// TranslationTable is a table-driven TranslationFunc.
	TranslationTable = svc.TranslationTable
	// Binding maps component-local resource names to concrete resource
	// IDs for one session.
	Binding = svc.Binding
)

// Partial-order results.
const (
	Incomparable = qos.Incomparable
	Less         = qos.Less
	Equal        = qos.Equal
	Greater      = qos.Greater
)

// NewVector builds a QoS vector from parameters.
func NewVector(params ...Param) (Vector, error) { return qos.NewVector(params...) }

// MustVector is NewVector that panics on error.
func MustVector(params ...Param) Vector { return qos.MustVector(params...) }

// P is shorthand for a Param.
func P(name string, value float64) Param { return qos.P(name, value) }

// NewService builds and validates a Service.
func NewService(name string, components []*Component, edges []ServiceEdge, ranking []string) (*Service, error) {
	return svc.NewService(name, components, edges, ranking)
}

// QRG and planning (section 4).
type (
	// Graph is a QoS-Resource Graph.
	Graph = qrg.Graph
	// Snapshot is the availability/α snapshot a QRG is built from.
	Snapshot = broker.Snapshot
	// Plan is an end-to-end multi-resource reservation plan.
	Plan = core.Plan
	// PlanChoice is one component's selected (Qin, Qout, requirement).
	PlanChoice = core.Choice
	// Planner computes plans from QRGs.
	Planner = core.Planner
)

// ErrInfeasible is returned when no feasible end-to-end plan exists.
var ErrInfeasible = core.ErrInfeasible

// BuildQRG constructs the QoS-Resource Graph of one service session
// (section 4.1.1).
func BuildQRG(service *Service, binding Binding, snap *Snapshot) (*Graph, error) {
	return qrg.Build(service, binding, snap)
}

// NewBasicPlanner returns the paper's basic runtime algorithm
// (section 4.1): highest reachable end-to-end QoS, smallest bottleneck
// contention index.
func NewBasicPlanner() Planner { return core.Basic{} }

// NewTradeoffPlanner returns the basic algorithm extended with the
// QoS/success-rate trade-off policy of section 4.3.1.
func NewTradeoffPlanner() Planner { return core.Tradeoff{} }

// NewRandomPlanner returns the contention-unaware baseline of section 5,
// seeded deterministically.
func NewRandomPlanner(seed int64) Planner { return core.NewRandom(seed) }

// NewRandomPlannerRNG returns the baseline over a caller-owned RNG.
func NewRandomPlannerRNG(rng *rand.Rand) Planner { return &core.Random{RNG: rng} }

// NewTwoPassPlanner returns the two-pass heuristic of section 4.3.2 for
// services with DAG dependency graphs.
func NewTwoPassPlanner() Planner { return core.TwoPass{} }

// NewExhaustivePlanner returns the exact embedded-graph enumerator, an
// exponential-time quality baseline for small services.
func NewExhaustivePlanner() Planner { return core.Exhaustive{} }

// ValidatePlan checks that a plan is a consistent, feasible selection
// over the QRG's service and snapshot; use it before reserving plans
// that were persisted, transported, or hand-edited.
func ValidatePlan(g *Graph, p *Plan) error { return core.ValidatePlan(g, p) }

// PlanCount summarizes the feasible plans a QRG admits at one
// end-to-end QoS level.
type PlanCount = core.PlanCount

// FeasiblePlanCounts counts, per end-to-end level (best first), how
// many feasible reservation plans the QRG admits.
func FeasiblePlanCounts(g *Graph) []PlanCount { return core.FeasiblePlanCounts(g) }

// Reservation-enabled environment (section 3).
type (
	// Time is simulation time in the paper's abstract Time Units.
	Time = broker.Time
	// Broker is a Resource Broker.
	Broker = broker.Broker
	// LocalBroker manages one local resource or network link.
	LocalBroker = broker.Local
	// NetworkBroker manages a two-level end-to-end network resource.
	NetworkBroker = broker.Network
	// Pool is the registry of every broker in an environment.
	Pool = broker.Pool
	// MultiReservation backs one end-to-end reservation plan.
	MultiReservation = broker.MultiReservation
	// Report is a broker's availability + change-index report.
	Report = broker.Report
	// ReservationID identifies a reservation at a broker.
	ReservationID = broker.ReservationID
	// Topology is the host/link substrate.
	Topology = topo.Topology
	// HostID identifies an end host.
	HostID = topo.HostID
	// LinkID identifies a network link.
	LinkID = topo.LinkID
	// Link is an undirected network link.
	Link = topo.Link
)

// ErrInsufficient is returned when a reservation exceeds availability.
var ErrInsufficient = broker.ErrInsufficient

// NewLocalBroker creates a broker for one local resource.
func NewLocalBroker(resource string, capacity float64) (*LocalBroker, error) {
	return broker.NewLocal(resource, capacity)
}

// NewPool creates a broker pool over a topology (nil for local-only).
func NewPool(t *Topology) *Pool { return broker.NewPool(t) }

// NewTopology builds a topology with precomputed minimum-hop routes.
func NewTopology(hosts []HostID, links []Link) (*Topology, error) {
	return topo.New(hosts, links)
}

// Figure9Topology builds the paper's simulated environment topology.
func Figure9Topology() *Topology { return topo.Figure9() }

// QoSProxy runtime architecture (section 3).
type (
	// Runtime deploys QoSProxies over hosts.
	Runtime = proxy.Runtime
	// QoSProxy is a per-host reservation coordinator.
	QoSProxy = proxy.QoSProxy
	// Session is an established end-to-end reservation.
	Session = proxy.Session
	// SessionSpec describes a session to establish.
	SessionSpec = proxy.SessionSpec
	// Clock supplies time to a Runtime.
	Clock = proxy.Clock
	// ManualClock is a settable Clock.
	ManualClock = proxy.ManualClock
	// WallClock is a Clock driven by the host's wall time.
	WallClock = proxy.WallClock
	// Skeleton is the distributed-model service shape stored at a main
	// QoSProxy (section 3's distributed model-storage approach).
	Skeleton = proxy.Skeleton
)

// NewWallClock creates a wall clock advancing tuPerSecond Time Units
// per second.
func NewWallClock(tuPerSecond float64) *WallClock { return proxy.NewWallClock(tuPerSecond) }

// NewRuntime creates a QoSProxy runtime over a clock with the default
// configuration (proxy.Options{}).
func NewRuntime(clock Clock) *Runtime { return proxy.NewRuntime(clock, proxy.Options{}) }

// Simulation study (section 5).
type (
	// SimConfig parameterizes one simulation run.
	SimConfig = sim.Config
	// SimResult is the outcome of one run.
	SimResult = sim.Result
	// SimAlgorithm selects the planning algorithm of a run.
	SimAlgorithm = sim.Algorithm
)

// Session tracing (observability for simulations and runtimes).
type (
	// Tracer consumes session-lifecycle events.
	Tracer = trace.Tracer
	// TraceEvent is one session-lifecycle event.
	TraceEvent = trace.Event
	// TraceKind classifies a TraceEvent.
	TraceKind = trace.Kind
	// TraceRing keeps the last N events in memory.
	TraceRing = trace.Ring
	// TraceCSV streams events as CSV.
	TraceCSV = trace.CSV
	// TraceMulti fans events out to several tracers.
	TraceMulti = trace.Multi
)

// NewTraceRing creates an in-memory ring tracer holding up to n events.
func NewTraceRing(n int) *TraceRing { return trace.NewRing(n) }

// NewTraceCSV creates a CSV tracer over a writer.
func NewTraceCSV(w io.Writer) (*TraceCSV, error) { return trace.NewCSV(w) }

// Simulation algorithms.
const (
	SimBasic    = sim.AlgBasic
	SimTradeoff = sim.AlgTradeoff
	SimRandom   = sim.AlgRandom
)

// DefaultSimConfig returns the paper's simulation parameters.
func DefaultSimConfig(alg SimAlgorithm, rate float64, seed int64) SimConfig {
	return sim.DefaultConfig(alg, rate, seed)
}

// RunSimulation executes one deterministic simulation run.
func RunSimulation(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }
