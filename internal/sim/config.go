// Package sim implements the discrete-event simulation of the paper's
// performance study (section 5.1): the figure-9 reservation-enabled
// environment with four servers, eight client domains and fourteen
// links; four deployed services; Poisson session arrivals with
// heterogeneous resource requirements (normal vs. "fat" sessions) and
// durations (short vs. long); dynamically changing per-service request
// probabilities; and optionally stale resource availability observations
// (section 5.2.4).
package sim

import (
	"fmt"

	"qosres/internal/broker"
	"qosres/internal/obs"
	"qosres/internal/qrg"
	"qosres/internal/trace"
	"qosres/internal/workload"
)

// Algorithm selects the runtime planning algorithm of a run.
type Algorithm string

// The three algorithms compared in section 5.
const (
	AlgBasic    Algorithm = "basic"
	AlgTradeoff Algorithm = "tradeoff"
	AlgRandom   Algorithm = "random"
)

// Config parameterizes one simulation run. The zero value is not valid;
// start from DefaultConfig.
type Config struct {
	// Seed drives every random choice of the run.
	Seed int64
	// Algorithm is the planning algorithm under test.
	Algorithm Algorithm
	// Rate is the average session generation rate in sessions per 60 TUs
	// (the paper sweeps 60..240).
	Rate float64
	// Duration is the total simulated time; the paper uses 10800 TUs.
	Duration broker.Time
	// StaleE is the maximum observation age E of section 5.2.4: each
	// resource's availability is observed up to E TUs ago, uniformly at
	// random. 0 restores the atomic, accurate-observation model.
	StaleE broker.Time
	// Workload configures the figure-10 tables (base scale, diversity
	// compression).
	Workload workload.Options
	// AlphaWindow is the Resource Brokers' report-averaging window T for
	// the tradeoff policy; the paper uses 3 TUs.
	AlphaWindow broker.Time
	// CapacityMin/Max bound the uniformly drawn initial total amount of
	// each resource; the paper uses 1000..4000.
	CapacityMin, CapacityMax float64
	// PopularityInterval is how often the per-service request
	// probabilities are re-drawn, creating the shifting per-resource
	// demand of section 5.1.
	PopularityInterval broker.Time
	// FatRatio is the probability that a session is "fat"; the paper's
	// normal:fat ratio of 1:2 gives 2/3.
	FatRatio float64
	// FatMultipliers are the candidate requirement multipliers N of fat
	// sessions (the paper: 2 or 10, which we draw uniformly).
	FatMultipliers []float64
	// LongRatio is the probability that a session is "long"; the paper's
	// long:short ratio of 1:2 gives 1/3.
	LongRatio float64
	// DurationMin/Split/Max delimit the session duration ranges:
	// short in [DurationMin, DurationSplit], long in (DurationSplit,
	// DurationMax]; the paper uses 20/60/600.
	DurationMin, DurationSplit, DurationMax broker.Time
	// Contention selects the per-resource contention index definition:
	// "" or "ratio" (the paper's equation 2), "headroom", or "log"
	// (footnote-2 alternatives, for ablation).
	Contention string
	// Tracer, when non-nil, receives a structured event stream of every
	// session's lifecycle (see package trace).
	Tracer trace.Tracer
	// Obs, when non-nil, receives runtime metrics: session-event
	// counters, planning stage-latency histograms, per-resource
	// utilization and α gauges, and the Ψ distribution of accepted plans
	// (see package obs). A nil registry costs nothing on the hot path.
	Obs *obs.Registry
	// TraceSample enables causal distributed tracing of session
	// admissions: each arrival's establishment rolls head sampling with
	// this probability (errored admissions are always tail-rescued), and
	// retained span trees are exported to the Tracer as span_end /
	// span_event lines. 0 disables tracing entirely — the admission hot
	// path then never locks, reads the clock, or allocates for tracing.
	TraceSample float64
	// NoTieBreak disables the basic algorithm's section 4.1.2
	// predecessor tie-break rule (ablation).
	NoTieBreak bool
	// TimelineWindow, when > 0, attaches a time series to the metrics
	// bucketing session outcomes into windows of this width (TUs).
	TimelineWindow float64
	// UseRuntime routes every session through the QoSProxy runtime
	// architecture (per-host proxy goroutines, the three-phase protocol)
	// instead of direct broker calls. Incompatible with StaleE > 0: the
	// protocol always observes current availability.
	UseRuntime bool
	// MaxAdmitRetries bounds the runtime admission retry loop: when a
	// computed plan is refused at commit time because its availability
	// snapshot went stale under concurrent admission, the proxy runtime
	// replans against a fresh snapshot up to this many more times. Only
	// meaningful with UseRuntime; 0 means fail-fast (single attempt).
	// Single-threaded simulation runs never trigger a retry, so the
	// value does not perturb deterministic results.
	MaxAdmitRetries int
	// TemplateCache serves QRG construction from compiled per-(service,
	// binding) templates instead of rebuilding each graph from scratch
	// (the plan-path fast lane). Results are identical either way — the
	// template replay is proven plan-for-plan equivalent to qrg.Build —
	// so the knob exists for benchmarking the reference path.
	TemplateCache bool
	// Faults, when non-nil, enables chaos mode: a seeded fault-injection
	// walk runs against the environment while sessions are established,
	// failed reservations are repaired, and holds are leased. Requires
	// UseRuntime and the concurrent chaos harness — use RunChaos; the
	// deterministic Run refuses the combination.
	Faults *FaultsConfig
}

// DefaultBaseScale calibrates the figure-10 requirement units against
// the 1000..4000-unit resource capacities so that the environment
// saturates across the paper's 60..240 arrival-rate sweep and the
// per-class success rates land near Table 3's (see EXPERIMENTS.md for
// the calibration notes).
const DefaultBaseScale = 1.3

// DefaultConfig returns the paper's parameters for the given algorithm,
// rate and seed.
func DefaultConfig(alg Algorithm, rate float64, seed int64) Config {
	return Config{
		Seed:               seed,
		Algorithm:          alg,
		Rate:               rate,
		Duration:           10800,
		Workload:           workload.Options{BaseScale: DefaultBaseScale},
		AlphaWindow:        broker.DefaultAlphaWindow,
		CapacityMin:        1000,
		CapacityMax:        4000,
		PopularityInterval: 1080,
		FatRatio:           2.0 / 3.0,
		FatMultipliers:     []float64{2, 10},
		LongRatio:          1.0 / 3.0,
		DurationMin:        20,
		DurationSplit:      60,
		DurationMax:        600,
		MaxAdmitRetries:    3,
		TemplateCache:      true,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch c.Algorithm {
	case AlgBasic, AlgTradeoff, AlgRandom:
	default:
		return fmt.Errorf("sim: unknown algorithm %q", c.Algorithm)
	}
	if c.Rate <= 0 {
		return fmt.Errorf("sim: rate must be positive, got %g", c.Rate)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("sim: duration must be positive, got %g", float64(c.Duration))
	}
	if c.StaleE < 0 {
		return fmt.Errorf("sim: negative staleness %g", float64(c.StaleE))
	}
	if c.CapacityMin <= 0 || c.CapacityMax < c.CapacityMin {
		return fmt.Errorf("sim: invalid capacity range [%g, %g]", c.CapacityMin, c.CapacityMax)
	}
	if c.FatRatio < 0 || c.FatRatio > 1 {
		return fmt.Errorf("sim: fat ratio %g out of [0,1]", c.FatRatio)
	}
	if c.LongRatio < 0 || c.LongRatio > 1 {
		return fmt.Errorf("sim: long ratio %g out of [0,1]", c.LongRatio)
	}
	if len(c.FatMultipliers) == 0 && c.FatRatio > 0 {
		return fmt.Errorf("sim: fat sessions enabled but no multipliers")
	}
	for _, m := range c.FatMultipliers {
		if m <= 0 {
			return fmt.Errorf("sim: non-positive fat multiplier %g", m)
		}
	}
	if !(c.DurationMin > 0 && c.DurationMin <= c.DurationSplit && c.DurationSplit <= c.DurationMax) {
		return fmt.Errorf("sim: invalid duration ranges %g/%g/%g",
			float64(c.DurationMin), float64(c.DurationSplit), float64(c.DurationMax))
	}
	if c.PopularityInterval < 0 {
		return fmt.Errorf("sim: negative popularity interval")
	}
	if c.AlphaWindow <= 0 {
		return fmt.Errorf("sim: non-positive alpha window")
	}
	if _, ok := qrg.ContentionByName(c.Contention); !ok {
		return fmt.Errorf("sim: unknown contention index %q", c.Contention)
	}
	if c.UseRuntime && c.StaleE > 0 {
		return fmt.Errorf("sim: UseRuntime is incompatible with stale observations (E=%g)", float64(c.StaleE))
	}
	if c.UseRuntime && c.Contention != "" && c.Contention != "ratio" {
		return fmt.Errorf("sim: UseRuntime supports only the ratio contention index")
	}
	if c.MaxAdmitRetries < 0 {
		return fmt.Errorf("sim: negative admission retry bound %d", c.MaxAdmitRetries)
	}
	if c.TraceSample < 0 || c.TraceSample > 1 {
		return fmt.Errorf("sim: trace sample %g out of [0,1]", c.TraceSample)
	}
	if c.Faults != nil {
		if !c.UseRuntime {
			return fmt.Errorf("sim: fault injection requires the QoSProxy runtime (UseRuntime)")
		}
		if err := c.Faults.validate(); err != nil {
			return err
		}
	}
	return nil
}
