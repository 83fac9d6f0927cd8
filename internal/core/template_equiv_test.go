package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"qosres/internal/broker"
	"qosres/internal/qos"
	"qosres/internal/qrg"
	"qosres/internal/qrg/qrgtest"
	"qosres/internal/svc"
)

// This file proves the compiled template is indistinguishable from the
// reference builder of package qrgtest: for hundreds of seeded random
// services, bindings, and snapshots — chains, fan-in DAGs, and
// infeasible availability included — Compile+Instantiate must produce a
// graph identical to qrgtest.ReferenceBuild (same node/edge IDs,
// adjacency, sinks) and every planner must produce byte-for-byte
// identical plans (path, Ψ, α, rank, tie-breaks) on both.

// zeroSnapshot drains a snapshot's availability below any generated
// requirement (generators draw needs >= 1), pruning every translation
// edge so the graph keeps only its source node.
func zeroSnapshot(snap *broker.Snapshot) *broker.Snapshot {
	avail := make(qos.ResourceVector, len(snap.Avail))
	for r := range snap.Avail {
		avail[r] = 0.5
	}
	return &broker.Snapshot{At: snap.At, Avail: avail, Alpha: snap.Alpha}
}

// assertGraphsIdentical compares every observable field of the two
// graphs.
func assertGraphsIdentical(t *testing.T, label string, want, got *qrg.Graph) {
	t.Helper()
	if diff := qrgtest.GraphDiff(want, got); diff != "" {
		t.Fatalf("%s: %s", label, diff)
	}
}

// assertPlansIdentical requires both planner outcomes to agree exactly:
// same error class, or deeply equal plans with identical rendering.
func assertPlansIdentical(t *testing.T, label string, pWant *Plan, errWant error, pGot *Plan, errGot error) {
	t.Helper()
	if (errWant == nil) != (errGot == nil) {
		t.Fatalf("%s: error mismatch: reference %v, template %v", label, errWant, errGot)
	}
	if errWant != nil {
		if errors.Is(errWant, ErrInfeasible) != errors.Is(errGot, ErrInfeasible) {
			t.Fatalf("%s: error class mismatch: reference %v, template %v", label, errWant, errGot)
		}
		return
	}
	if !reflect.DeepEqual(pWant, pGot) {
		t.Fatalf("%s: plans differ\nreference: %+v\ntemplate:  %+v", label, pWant, pGot)
	}
	if sw, sg := fmt.Sprintf("%+v", pWant), fmt.Sprintf("%+v", pGot); sw != sg {
		t.Fatalf("%s: plan renderings differ\nreference: %s\ntemplate:  %s", label, sw, sg)
	}
}

// equivPlanners returns fresh planner pairs for one comparison; the
// random planner needs two same-seeded instances so its draws stay in
// lockstep across the two graphs.
func equivPlanners(seed int64) []struct {
	name       string
	forRef     Planner
	forInst    Planner
	chainsOnly bool
} {
	return []struct {
		name       string
		forRef     Planner
		forInst    Planner
		chainsOnly bool
	}{
		{name: "basic", forRef: Basic{}, forInst: Basic{}},
		{name: "basic-no-tiebreak", forRef: Basic{NoTieBreak: true}, forInst: Basic{NoTieBreak: true}},
		{name: "tradeoff", forRef: Tradeoff{}, forInst: Tradeoff{}},
		{name: "twopass", forRef: TwoPass{}, forInst: TwoPass{}},
		{name: "random", forRef: NewRandom(seed), forInst: NewRandom(seed), chainsOnly: true},
	}
}

// checkEquivalence runs one scenario end to end: build both graphs,
// compare them, compare all planner outputs, then instantiate again
// after recycling to prove pooled buffers do not leak state.
func checkEquivalence(t *testing.T, label string, service *svc.Service, binding svc.Binding, snap *broker.Snapshot, seed int64) {
	t.Helper()
	gWant, errW := qrgtest.ReferenceBuild(service, binding, snap, qrg.BuildOptions{})
	tpl, errC := qrg.Compile(service, binding)
	if errC != nil {
		t.Fatalf("%s: compile failed: %v", label, errC)
	}
	gGot, errI := tpl.Instantiate(snap)
	if (errW == nil) != (errI == nil) {
		t.Fatalf("%s: reference err %v, template err %v", label, errW, errI)
	}
	if errW != nil {
		return
	}
	assertGraphsIdentical(t, label, gWant, gGot)

	isChain := service.IsChain()
	for _, pp := range equivPlanners(seed) {
		if pp.chainsOnly && !isChain {
			continue
		}
		pW, eW := pp.forRef.Plan(gWant)
		pG, eG := pp.forInst.Plan(gGot)
		assertPlansIdentical(t, label+"/"+pp.name, pW, eW, pG, eG)
	}

	// Round 2 on recycled buffers: identical again.
	tpl.Recycle(gGot)
	gGot2, err := tpl.Instantiate(snap)
	if err != nil {
		t.Fatalf("%s: re-instantiate failed: %v", label, err)
	}
	assertGraphsIdentical(t, label+"/recycled", gWant, gGot2)
	p1, e1 := (Basic{}).Plan(gWant)
	p2, e2 := (Basic{}).Plan(gGot2)
	assertPlansIdentical(t, label+"/recycled/basic", p1, e1, p2, e2)
	tpl.Recycle(gGot2)
}

// TestTemplateEquivalenceRandomized is the acceptance test of the
// compiled template: >= 200 seeded scenarios (random chains, fan-in
// DAGs, and their infeasible-snapshot variants) with plan-for-plan
// identity between Compile+Instantiate and the reference builder under
// basic (with and without tie-break), tradeoff, random (same seed), and
// two-pass planners.
func TestTemplateEquivalenceRandomized(t *testing.T) {
	scenarios := 0

	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 120; trial++ {
		k := 2 + rng.Intn(5)
		service, binding, snap := randChainService(rng, k)
		checkEquivalence(t, fmt.Sprintf("chain/%d", trial), service, binding, snap, int64(trial))
		scenarios++
		if trial%4 == 0 {
			// Starved availability: everything prunes, both paths must
			// degrade identically (usually to ErrInfeasible).
			checkEquivalence(t, fmt.Sprintf("chain/%d/infeasible", trial), service, binding, zeroSnapshot(snap), int64(trial))
			scenarios++
		}
	}

	rng = rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		service, binding, snap := randDagService(rng)
		checkEquivalence(t, fmt.Sprintf("dag/%d", trial), service, binding, snap, int64(trial))
		scenarios++
		if trial%4 == 0 {
			checkEquivalence(t, fmt.Sprintf("dag/%d/infeasible", trial), service, binding, zeroSnapshot(snap), int64(trial))
			scenarios++
		}
	}

	if scenarios < 200 {
		t.Fatalf("only %d scenarios exercised, want >= 200", scenarios)
	}
}

// TestTemplateEquivalenceAcrossSnapshots drives one compiled template
// through a sweep of availability levels — the production usage pattern
// (compile once, instantiate per snapshot) — checking graph identity at
// every step as feasibility pruning grows and shrinks the graph.
func TestTemplateEquivalenceAcrossSnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	service, binding, snap := randChainService(rng, 4)
	tpl, err := qrg.Compile(service, binding)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for step := 0; step < 30; step++ {
		avail := make(qos.ResourceVector, len(snap.Avail))
		for r := range snap.Avail {
			avail[r] = float64(step) * 4
		}
		s := &broker.Snapshot{Avail: avail, Alpha: snap.Alpha}
		gWant, errW := qrgtest.ReferenceBuild(service, binding, s, qrg.BuildOptions{})
		gGot, errI := tpl.Instantiate(s)
		if (errW == nil) != (errI == nil) {
			t.Fatalf("step %d: reference err %v, template err %v", step, errW, errI)
		}
		if errW != nil {
			continue
		}
		assertGraphsIdentical(t, fmt.Sprintf("step/%d", step), gWant, gGot)
		pW, eW := (Basic{}).Plan(gWant)
		pG, eG := (Basic{}).Plan(gGot)
		assertPlansIdentical(t, fmt.Sprintf("step/%d", step), pW, eW, pG, eG)
		tpl.Recycle(gGot)
	}
}
