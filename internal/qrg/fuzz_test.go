package qrg_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"qosres/internal/broker"
	"qosres/internal/core"
	"qosres/internal/qos"
	"qosres/internal/qrg"
	"qosres/internal/qrg/qrgtest"
	"qosres/internal/svc"
	"qosres/internal/workload"
)

// draws turns fuzz bytes into generator decisions, one byte per draw.
// Past the end of the input every draw is 0, so any prefix — the empty
// input included — still describes a complete scenario, and 0 is always
// the plain choice: a chain, everything bound, full availability.
type draws []byte

func (d *draws) intn(n int) int {
	if len(*d) == 0 {
		return 0
	}
	v := int((*d)[0]) % n
	*d = (*d)[1:]
	return v
}

// fixtures are the services the generator does not describe, selected
// by the first draw: the repository's canonical workloads and the chain
// whose unreachable input level needs an unbound gpu.
var fixtures = []func() (*svc.Service, svc.Binding, *broker.Snapshot){
	func() (*svc.Service, svc.Binding, *broker.Snapshot) {
		return workload.VideoService(), workload.VideoBinding(), workload.VideoSnapshot()
	},
	func() (*svc.Service, svc.Binding, *broker.Snapshot) {
		return workload.DagService(), workload.DagBinding(), workload.DagSnapshot()
	},
	func() (*svc.Service, svc.Binding, *broker.Snapshot) { return workload.SyntheticChain(6, 4) },
	gpuChain,
}

// genService draws a service, binding and availability snapshot.
//
// Components c0..c(k-1) are in topological order. Each later component
// takes its predecessors from the three before it (only the previous one
// unless a draw says otherwise), and every component left without a
// successor feeds the last, so the service has one source and one sink;
// fan-ins stay far below the compile-time bound. Output levels carry a
// single parameter q in 0..3 and input levels q in 0..4 (per upstream,
// labelled, for a fan-in), so some levels match, some repeat and some
// match nothing. A translation pair may be unsupported, ask for nothing,
// or also ask for a second resource u; a binding may leave r or u
// unbound or share r with other components.
func genService(d *draws) (*svc.Service, svc.Binding, *broker.Snapshot) {
	if f := d.intn(8); f > 0 && f <= len(fixtures) {
		service, binding, snap := fixtures[f-1]()
		avail := make(qos.ResourceVector, len(snap.Avail))
		for _, r := range snap.Avail.Names() {
			avail[r] = snap.Avail[r] * float64(8-d.intn(9)) / 8
		}
		return service, binding, &broker.Snapshot{Avail: avail, Alpha: snap.Alpha}
	}
	k := 1 + d.intn(6)
	ids := make([]svc.ComponentID, k)
	for i := range ids {
		ids[i] = svc.ComponentID(fmt.Sprintf("c%d", i))
	}
	preds := make([][]int, k)
	hasSucc := make([]bool, k)
	for j := 1; j < k; j++ {
		mask := d.intn(8)
		for back := 1; back <= 3 && back <= j; back++ {
			if mask&(1<<(back-1)) != 0 {
				preds[j] = append(preds[j], j-back)
			}
		}
		if len(preds[j]) == 0 {
			preds[j] = []int{j - 1}
		}
		for _, p := range preds[j] {
			hasSucc[p] = true
		}
	}
	for i := 0; i < k-1; i++ {
		if !hasSucc[i] {
			preds[k-1] = append(preds[k-1], i)
		}
	}

	levels := func(prefix string, n int, vec func() qos.Vector) []svc.Level {
		out := make([]svc.Level, n)
		for i := range out {
			out[i] = svc.Level{Name: fmt.Sprintf("%s%d", prefix, i), Vector: vec()}
		}
		return out
	}
	qv := func(n int) func() qos.Vector {
		return func() qos.Vector { return qos.MustVector(qos.P("q", float64(d.intn(n)))) }
	}

	var comps []*svc.Component
	var edges []svc.Edge
	binding := svc.Binding{}
	avail := qos.ResourceVector{}
	alpha := map[string]float64{}
	resource := func(name string) string {
		if _, ok := avail[name]; !ok {
			avail[name] = float64(128 - d.intn(129))
			alpha[name] = 0.5 + float64(d.intn(4))/4
		}
		return name
	}
	for j, id := range ids {
		var in []svc.Level
		switch len(preds[j]) {
		case 0:
			in = levels("src", 1, qv(1))
		case 1:
			in = levels("in", 1+d.intn(4), qv(5))
		default:
			labels := make([]string, len(preds[j]))
			for i, p := range preds[j] {
				labels[i] = string(ids[p])
			}
			in = levels("in", 1+d.intn(4), func() qos.Vector {
				vs := make([]qos.Vector, len(labels))
				for i := range vs {
					vs[i] = qv(5)()
				}
				return qos.ConcatAll(labels, vs)
			})
		}
		out := levels("out", 1+d.intn(4), qv(4))
		table := svc.TranslationTable{}
		for _, li := range in {
			row := map[string]qos.ResourceVector{}
			for _, lo := range out {
				switch d.intn(8) {
				case 7: // unsupported
				case 6:
					row[lo.Name] = qos.ResourceVector{"r": float64(d.intn(64)), "u": float64(1 + d.intn(32))}
				default:
					row[lo.Name] = qos.ResourceVector{"r": float64(d.intn(64))}
				}
			}
			table[li.Name] = row
		}
		comps = append(comps, &svc.Component{ID: id, In: in, Out: out,
			Translate: table.Func(), Resources: []string{"r", "u"}})
		for _, p := range preds[j] {
			edges = append(edges, svc.Edge{From: ids[p], To: id})
		}
		b := map[string]string{"r": "r@" + string(id), "u": "u@" + string(id)}
		switch d.intn(4) {
		case 1:
			b["r"] = "shared"
		case 2:
			delete(b, "u")
		case 3:
			delete(b, "r")
		}
		for _, abstract := range []string{"r", "u"} {
			if concrete, ok := b[abstract]; ok {
				resource(concrete)
			}
		}
		binding[id] = b
	}
	sink := comps[k-1].Out
	ranking := make([]string, len(sink))
	for i := range ranking {
		ranking[i] = sink[i].Name
	}
	for i := len(ranking) - 1; i > 0; i-- {
		j := d.intn(i + 1)
		ranking[i], ranking[j] = ranking[j], ranking[i]
	}
	service, err := svc.NewService("fuzz", comps, edges, ranking)
	if err != nil {
		panic(err) // the generator only draws valid services
	}
	return service, binding, &broker.Snapshot{Avail: avail, Alpha: alpha}
}

// scaled returns snap with every availability multiplied by f.
func scaled(snap *broker.Snapshot, f float64) *broker.Snapshot {
	avail := make(qos.ResourceVector, len(snap.Avail))
	for r, v := range snap.Avail {
		avail[r] = v * f
	}
	return &broker.Snapshot{At: snap.At, Avail: avail, Alpha: snap.Alpha}
}

// requireSameGraph compares every observable field of the two graphs.
func requireSameGraph(t *testing.T, label string, want, got *qrg.Graph) {
	t.Helper()
	if diff := qrgtest.GraphDiff(want, got); diff != "" {
		t.Fatalf("%s: %s", label, diff)
	}
}

// requireSamePlans runs every planner on both graphs and requires the
// same outcome: the same error class, or deeply equal plans. The random
// planner gets one same-seeded instance per graph so its draws stay in
// lockstep.
func requireSamePlans(t *testing.T, label string, want, got *qrg.Graph, seed int64) {
	t.Helper()
	planners := []struct {
		name       string
		forW, forG core.Planner
	}{
		{"basic", core.Basic{}, core.Basic{}},
		{"tradeoff", core.Tradeoff{}, core.Tradeoff{}},
		{"twopass", core.TwoPass{}, core.TwoPass{}},
		{"exhaustive", core.Exhaustive{}, core.Exhaustive{}},
		{"random", core.NewRandom(seed), core.NewRandom(seed)},
	}
	for _, p := range planners {
		pW, eW := p.forW.Plan(want)
		pG, eG := p.forG.Plan(got)
		if (eW == nil) != (eG == nil) || errors.Is(eW, core.ErrInfeasible) != errors.Is(eG, core.ErrInfeasible) {
			t.Fatalf("%s/%s: reference err %v, template err %v", label, p.name, eW, eG)
		}
		if !reflect.DeepEqual(pW, pG) {
			t.Fatalf("%s/%s: plans differ\nreference: %+v\ntemplate:  %+v", label, p.name, pW, pG)
		}
	}
}

// FuzzTemplateMatchesReference is the differential test of the one QRG
// construction. Every input draws a service (chain or fan-in DAG, or one
// of the fixtures), a binding with resources possibly left unbound, a
// snapshot and a contention function. One compiled template is then
// instantiated against that snapshot, two scaled-down copies and a
// drained one, in that order, so later rounds run on recycled buffers.
// Each round must match the reference builder: the same error outcome
// and, on success, the same graph (its chain mark equal to
// svc.Service.IsChain) and the same plan from every planner.
func FuzzTemplateMatchesReference(f *testing.F) {
	f.Add([]byte{})
	for fix := range fixtures {
		f.Add([]byte{byte(fix + 1)})
		f.Add([]byte{byte(fix + 1), 4, 2, 6, 1, 8, 3})
	}
	for _, seed := range []int64{41, 42} {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 48; i++ {
			b := make([]byte, 32+rng.Intn(224))
			rng.Read(b)
			b[0] = 0 // generated, not a fixture
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := draws(data)
		service, binding, snap := genService(&d)
		contentions := []qrg.ContentionFunc{qrg.RatioContention, qrg.HeadroomContention, qrg.LogContention}
		opts := qrg.BuildOptions{Contention: contentions[d.intn(len(contentions))]}

		tpl, errC := qrg.Compile(service, binding)
		for round, s := range []*broker.Snapshot{snap, scaled(snap, 0.5), scaled(snap, 0.25), scaled(snap, 0)} {
			label := fmt.Sprintf("round %d", round)
			want, errW := qrgtest.ReferenceBuild(service, binding, s, opts)
			if errC != nil {
				if errW == nil {
					t.Fatalf("%s: compile refused what the reference builds: %v", label, errC)
				}
				continue
			}
			got, errI := tpl.InstantiateWithOptions(s, opts)
			if (errW == nil) != (errI == nil) {
				t.Fatalf("%s: reference err %v, template err %v", label, errW, errI)
			}
			if errW != nil {
				continue
			}
			requireSameGraph(t, label, want, got)
			if got.Chain != service.IsChain() {
				t.Fatalf("%s: chain mark %v, IsChain %v", label, got.Chain, service.IsChain())
			}
			requireSamePlans(t, label, want, got, int64(len(data)))
			tpl.Recycle(got)
		}
	})
}
