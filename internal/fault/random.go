package fault

import (
	"math/rand"

	"qosres/internal/broker"
)

// RandomConfig parameterizes the seeded random fault walk. Each
// RandomStep rolls one action: recover/restore something active with
// RecoverProb, otherwise fail a resource with FailProb (bounded by
// MaxActive concurrent outages), otherwise shrink a capacity with
// ShrinkProb. Probabilities are evaluated in that order against one
// uniform draw, so their sum should stay at or below 1.
type RandomConfig struct {
	// FailProb is the per-step probability of failing one more resource.
	FailProb float64
	// ShrinkProb is the per-step probability of shrinking one capacity.
	ShrinkProb float64
	// RecoverProb is the per-step probability of recovering one downed
	// resource (or restoring one shrunk capacity when nothing is down).
	RecoverProb float64
	// MaxActive bounds the number of concurrently-downed resources;
	// 0 means at most one.
	MaxActive int
	// PartitionProb is the per-step probability of cutting the transport
	// route between one more random host pair (needs a topology and an
	// attached fabric; silently skipped otherwise).
	PartitionProb float64
	// HealProb is the per-step probability of healing one cut route.
	HealProb float64
	// MaxPartitions bounds the number of concurrently-cut routes;
	// 0 means at most one.
	MaxPartitions int
	// CrashProb is the per-step probability of crash-restarting one
	// random host's proxy (needs a topology and an attached restarter;
	// silently skipped otherwise). The crash is evaluated after the
	// probabilities above, so those replay identically whether or not
	// crashes are enabled.
	CrashProb float64
	// SurgeProb is the per-step probability of a surge-load action:
	// when surges are active, end one; otherwise reserve 50-90% of a
	// random healthy resource's free capacity as external background
	// load (brownout pressure for the adaptation layer). Evaluated last
	// in the ladder.
	SurgeProb float64
}

// shrinkLo and shrinkHi bound the uniform capacity multiplier of a
// shrink event.
const shrinkLo, shrinkHi = 0.3, 0.8

// DefaultRandomConfig is a moderately hostile walk: something is usually
// broken, but rarely everything at once.
func DefaultRandomConfig() RandomConfig {
	return RandomConfig{
		FailProb:    0.25,
		ShrinkProb:  0.15,
		RecoverProb: 0.35,
		MaxActive:   2,
	}
}

// RandomStep advances the random walk by one step using the caller's
// seeded source, returning the applied event (nil when the dice said
// "do nothing" or no eligible target existed). Determinism: with the
// same pool contents, topology, rng state, and call sequence, the walk
// replays identically.
func (in *Injector) RandomStep(now broker.Time, rng *rand.Rand, cfg RandomConfig) *Event {
	roll := rng.Float64()
	switch {
	case roll < cfg.RecoverProb:
		if downed := in.Active(); len(downed) > 0 {
			r := downed[rng.Intn(len(downed))]
			if in.RecoverResource(now, r) == nil {
				return &Event{Kind: KindRecover, Resources: []string{r}}
			}
			return nil
		}
		if shrunk := in.Shrunk(); len(shrunk) > 0 {
			r := shrunk[rng.Intn(len(shrunk))]
			if in.RestoreCapacity(now, r) == nil {
				return &Event{Kind: KindCapacityRestore, Resources: []string{r}}
			}
		}
		return nil
	case roll < cfg.RecoverProb+cfg.FailProb:
		maxActive := cfg.MaxActive
		if maxActive <= 0 {
			maxActive = 1
		}
		if len(in.Active()) >= maxActive {
			return nil
		}
		candidates := in.healthyResources()
		if len(candidates) == 0 {
			return nil
		}
		r := candidates[rng.Intn(len(candidates))]
		if in.FailResource(now, r) != nil {
			return nil
		}
		kind := KindResourceDown
		if broker.IsLinkResource(r) {
			kind = KindLinkDown
		}
		return &Event{Kind: kind, Resources: []string{r}}
	case roll < cfg.RecoverProb+cfg.FailProb+cfg.ShrinkProb:
		candidates := in.healthyResources()
		if len(candidates) == 0 {
			return nil
		}
		r := candidates[rng.Intn(len(candidates))]
		factor := shrinkLo + rng.Float64()*(shrinkHi-shrinkLo)
		if in.ShrinkCapacity(now, r, factor) != nil {
			return nil
		}
		return &Event{Kind: KindCapacityShrink, Resources: []string{r}}
	case roll < cfg.RecoverProb+cfg.FailProb+cfg.ShrinkProb+cfg.HealProb:
		cut := in.Partitioned()
		if len(cut) == 0 {
			return nil
		}
		p := cut[rng.Intn(len(cut))]
		if in.HealLink(p[0], p[1]) != nil {
			return nil
		}
		return &Event{Kind: KindHeal, Resources: []string{routeResource(pairOf(p[0], p[1]))}}
	case roll < cfg.RecoverProb+cfg.FailProb+cfg.ShrinkProb+cfg.HealProb+cfg.PartitionProb:
		maxParts := cfg.MaxPartitions
		if maxParts <= 0 {
			maxParts = 1
		}
		if len(in.Partitioned()) >= maxParts {
			return nil
		}
		pairs := in.uncutHostPairs()
		if len(pairs) == 0 {
			return nil
		}
		p := pairs[rng.Intn(len(pairs))]
		if in.PartitionLink(p[0], p[1]) != nil {
			return nil
		}
		return &Event{Kind: KindPartition, Resources: []string{routeResource(p)}}
	case roll < cfg.RecoverProb+cfg.FailProb+cfg.ShrinkProb+cfg.HealProb+cfg.PartitionProb+cfg.CrashProb:
		in.mu.Lock()
		restarter := in.restarter
		topology := in.topology
		in.mu.Unlock()
		if restarter == nil || topology == nil {
			return nil
		}
		hosts := topology.Hosts()
		if len(hosts) == 0 {
			return nil
		}
		h := hosts[rng.Intn(len(hosts))]
		if in.CrashRestart(now, h) != nil {
			return nil
		}
		return &Event{Kind: KindCrashRestart, Resources: in.hostResources(h)}
	case roll < cfg.RecoverProb+cfg.FailProb+cfg.ShrinkProb+cfg.HealProb+cfg.PartitionProb+cfg.CrashProb+cfg.SurgeProb:
		if surged := in.Surged(); len(surged) > 0 {
			r := surged[rng.Intn(len(surged))]
			if in.EndSurge(now, r) != nil {
				return nil
			}
			return &Event{Kind: KindSurgeEnd, Resources: []string{r}}
		}
		candidates := in.healthyResources()
		if len(candidates) == 0 {
			return nil
		}
		r := candidates[rng.Intn(len(candidates))]
		fraction := 0.5 + rng.Float64()*0.4
		if in.SurgeLoad(now, r, fraction) != nil {
			return nil
		}
		return &Event{Kind: KindSurge, Resources: []string{r}}
	default:
		return nil
	}
}

// uncutHostPairs lists the topology's host pairs whose route is not
// currently partitioned, in sorted (deterministic) order. Empty without
// a topology or an attached fabric.
func (in *Injector) uncutHostPairs() []hostPair {
	in.mu.Lock()
	fabric := in.fabric
	topology := in.topology
	in.mu.Unlock()
	if fabric == nil || topology == nil {
		return nil
	}
	hosts := topology.Hosts()
	var out []hostPair
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := 0; i < len(hosts); i++ {
		for j := i + 1; j < len(hosts); j++ {
			p := pairOf(hosts[i], hosts[j])
			if !in.partitioned[p] {
				out = append(out, p)
			}
		}
	}
	return out
}

// healthyResources lists the pool's local/link resources that are not
// currently downed, in sorted (deterministic) order.
func (in *Injector) healthyResources() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	var out []string
	for _, b := range in.pool.LocalBrokers() {
		if !in.downed[b.Resource()] {
			out = append(out, b.Resource())
		}
	}
	return out
}
