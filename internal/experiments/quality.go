package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"qosres/internal/broker"
	"qosres/internal/core"
	"qosres/internal/qos"
	"qosres/internal/qrg"
	"qosres/internal/stats"
	"qosres/internal/svc"
)

// HeuristicQualityResult quantifies the two documented limitations of
// the section-4.3.2 two-pass heuristic over randomized fan-out/fan-in
// DAG instances, against the exact embedded-graph enumerator:
//
//   - limitation (1): instances where the enumerator finds a plan but
//     pass II fails (the pass-I-reachable sink admits no embedded
//     graph along the locally resolved choices);
//   - limitation (2): instances solved by both where the heuristic's
//     Ψ_G exceeds the optimum.
type HeuristicQualityResult struct {
	Trials     int
	Infeasible int // neither algorithm finds a plan
	BothSolved int
	// HeuristicOnlyFailures counts limitation (1).
	HeuristicOnlyFailures int
	// PsiGaps counts limitation (2); MeanGap/MaxGap quantify it over
	// the gap instances (absolute Ψ difference).
	PsiGaps int
	MeanGap float64
	MaxGap  float64
	// RankAgreement counts both-solved instances with equal end-to-end
	// rank (always all of them; a counterexample indicates a bug).
	RankAgreement int
}

// HeuristicQuality runs the randomized study with the given number of
// trials (<= 0 means 2000).
func HeuristicQuality(seed int64, trials int) (*HeuristicQualityResult, error) {
	if trials <= 0 {
		trials = 2000
	}
	rng := rand.New(rand.NewSource(seed))
	res := &HeuristicQualityResult{Trials: trials}
	var gapSum float64
	for i := 0; i < trials; i++ {
		service, binding, snap := randomDiamond(rng)
		// Each diamond is a fresh (service, binding) pair: compile it and
		// instantiate it once, the construction admissions use.
		tpl, err := qrg.Compile(service, binding)
		if err != nil {
			return nil, err
		}
		g, err := tpl.Instantiate(snap)
		if err != nil {
			return nil, err
		}
		ph, errH := (core.TwoPass{}).Plan(g)
		pe, errE := (core.Exhaustive{}).Plan(g)
		switch {
		case errE != nil && errH != nil:
			res.Infeasible++
		case errE != nil && errH == nil:
			return nil, fmt.Errorf("experiments: heuristic solved an instance the enumerator calls infeasible (trial %d)", i)
		case errE == nil && errH != nil:
			res.HeuristicOnlyFailures++
		default:
			res.BothSolved++
			if ph.Rank == pe.Rank {
				res.RankAgreement++
			}
			if gap := ph.Psi - pe.Psi; gap > 1e-9 {
				res.PsiGaps++
				gapSum += gap
				if gap > res.MaxGap {
					res.MaxGap = gap
				}
			}
		}
	}
	if res.PsiGaps > 0 {
		res.MeanGap = gapSum / float64(res.PsiGaps)
	}
	return res, nil
}

// PrintHeuristicQuality renders the study.
func PrintHeuristicQuality(w io.Writer, r *HeuristicQualityResult) {
	t := &stats.Table{Header: []string{"metric", "value"}}
	t.AddRow("randomized DAG instances", fmt.Sprintf("%d", r.Trials))
	t.AddRow("infeasible (both)", fmt.Sprintf("%d", r.Infeasible))
	t.AddRow("solved by both", fmt.Sprintf("%d", r.BothSolved))
	t.AddRow("limitation 1: heuristic-only failures", fmt.Sprintf("%d (%.1f%% of solvable)",
		r.HeuristicOnlyFailures,
		100*float64(r.HeuristicOnlyFailures)/float64(maxInt(1, r.BothSolved+r.HeuristicOnlyFailures))))
	t.AddRow("limitation 2: Ψ_G above optimum", fmt.Sprintf("%d (%.1f%% of both-solved)",
		r.PsiGaps, 100*float64(r.PsiGaps)/float64(maxInt(1, r.BothSolved))))
	t.AddRow("mean / max Ψ gap", fmt.Sprintf("%.4f / %.4f", r.MeanGap, r.MaxGap))
	t.AddRow("rank agreement", fmt.Sprintf("%d/%d", r.RankAgreement, r.BothSolved))
	fmt.Fprintf(w, "Two-pass heuristic quality vs. exact enumeration (section 4.3.2 limitations)\n%s", t)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// randomDiamond builds a randomized c1 -> c2 -> {c3, c4} -> c5 instance
// (the figure-6 shape) with random requirement values, random missing
// (Qin, Qout) pairs, and random availability.
func randomDiamond(rng *rand.Rand) (*svc.Service, svc.Binding, *broker.Snapshot) {
	lv := func(name string, q float64) svc.Level {
		return svc.Level{Name: name, Vector: qos.MustVector(qos.P("q", q))}
	}
	req := func() qos.ResourceVector { return qos.ResourceVector{"r": 1 + rng.Float64()*99} }
	table := func(ins, outs []svc.Level, p float64) svc.TranslationTable {
		tb := svc.TranslationTable{}
		for _, in := range ins {
			row := map[string]qos.ResourceVector{}
			for _, out := range outs {
				if rng.Float64() < p {
					row[out.Name] = req()
				}
			}
			if len(row) > 0 {
				tb[in.Name] = row
			}
		}
		if len(tb) == 0 {
			tb[ins[0].Name] = map[string]qos.ResourceVector{outs[0].Name: req()}
		}
		return tb
	}

	qa := lv("Qa", 0)
	qb, qc := lv("Qb", 1), lv("Qc", 2)
	qd, qe := lv("Qd", 1), lv("Qe", 2)
	qh, qi := lv("Qh", 10), lv("Qi", 11)
	qj, qk := lv("Qj", 10), lv("Qk", 11)
	qn, qo := lv("Qn", 20), lv("Qo", 21)
	ql, qm := lv("Ql", 10), lv("Qm", 11)
	qp, qq := lv("Qp", 30), lv("Qq", 31)
	qv, qw := lv("Qv", 90), lv("Qw", 91)
	concat := func(name string, a, b svc.Level) svc.Level {
		return svc.Level{Name: name, Vector: qos.ConcatAll(
			[]string{"c3", "c4"}, []qos.Vector{a.Vector, b.Vector})}
	}
	fanIn := []svc.Level{
		concat("F1", qn, qp), concat("F2", qn, qq),
		concat("F3", qo, qp), concat("F4", qo, qq),
	}
	comps := []*svc.Component{
		{ID: "c1", In: []svc.Level{qa}, Out: []svc.Level{qb, qc},
			Translate: table([]svc.Level{qa}, []svc.Level{qb, qc}, 0.9).Func(), Resources: []string{"r"}},
		{ID: "c2", In: []svc.Level{qd, qe}, Out: []svc.Level{qh, qi},
			Translate: table([]svc.Level{qd, qe}, []svc.Level{qh, qi}, 0.8).Func(), Resources: []string{"r"}},
		{ID: "c3", In: []svc.Level{qj, qk}, Out: []svc.Level{qn, qo},
			Translate: table([]svc.Level{qj, qk}, []svc.Level{qn, qo}, 0.8).Func(), Resources: []string{"r"}},
		{ID: "c4", In: []svc.Level{ql, qm}, Out: []svc.Level{qp, qq},
			Translate: table([]svc.Level{ql, qm}, []svc.Level{qp, qq}, 0.8).Func(), Resources: []string{"r"}},
		{ID: "c5", In: fanIn, Out: []svc.Level{qv, qw},
			Translate: table(fanIn, []svc.Level{qv, qw}, 0.7).Func(), Resources: []string{"r"}},
	}
	service := svc.MustService("rand-diamond", comps, []svc.Edge{
		{From: "c1", To: "c2"},
		{From: "c2", To: "c3"},
		{From: "c2", To: "c4"},
		{From: "c3", To: "c5"},
		{From: "c4", To: "c5"},
	}, []string{"Qv", "Qw"})
	binding := svc.Binding{}
	avail := qos.ResourceVector{}
	alpha := map[string]float64{}
	for _, c := range comps {
		res := "r@" + string(c.ID)
		binding[c.ID] = map[string]string{"r": res}
		avail[res] = 30 + rng.Float64()*70
		alpha[res] = 1
	}
	return service, binding, &broker.Snapshot{Avail: avail, Alpha: alpha}
}
