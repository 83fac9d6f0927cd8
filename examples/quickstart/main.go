// Quickstart: define a two-component distributed service, stand up
// Resource Brokers, build the session's QoS-Resource Graph from a live
// availability snapshot, compute the contention-aware reservation plan,
// and make the actual multi-resource reservation.
package main

import (
	"fmt"
	"log"

	"qosres"
)

func main() {
	// --- 1. The QoS-Resource Model -----------------------------------
	//
	// A tiny media service: an Encoder on the server feeds a Player on
	// the client. Each component has discrete input/output QoS levels
	// and a translation function mapping (Qin, Qout) to the resources it
	// needs.
	hi := qosres.MustVector(qosres.P("rate", 30))
	lo := qosres.MustVector(qosres.P("rate", 15))
	e2eHi := qosres.MustVector(qosres.P("rate", 30), qosres.P("delay", 1))
	e2eLo := qosres.MustVector(qosres.P("rate", 15), qosres.P("delay", 2))

	encoder := &qosres.Component{
		ID: "Encoder",
		In: []qosres.Level{{Name: "src", Vector: hi}},
		Out: []qosres.Level{
			{Name: "hi", Vector: hi},
			{Name: "lo", Vector: lo},
		},
		Translate: qosres.TranslationTable{
			"src": {
				"hi": qosres.ResourceVector{"cpu": 40},
				"lo": qosres.ResourceVector{"cpu": 15},
			},
		}.Func(),
		Resources: []string{"cpu"},
	}
	player := &qosres.Component{
		ID: "Player",
		In: []qosres.Level{
			{Name: "in-hi", Vector: hi},
			{Name: "in-lo", Vector: lo},
		},
		Out: []qosres.Level{
			{Name: "best", Vector: e2eHi},
			{Name: "ok", Vector: e2eLo},
		},
		Translate: qosres.TranslationTable{
			"in-hi": {"best": qosres.ResourceVector{"net": 60}},
			"in-lo": {"best": qosres.ResourceVector{"net": 80}, // upscale: more correction data
				"ok": qosres.ResourceVector{"net": 25}},
		}.Func(),
		Resources: []string{"net"},
	}
	service, err := qosres.NewService("media",
		[]*qosres.Component{encoder, player},
		[]qosres.ServiceEdge{{From: "Encoder", To: "Player"}},
		[]string{"best", "ok"}, // end-to-end ranking, best first
	)
	if err != nil {
		log.Fatal(err)
	}

	// --- 2. The reservation-enabled environment ----------------------
	pool := qosres.NewPool(nil)
	if _, err := pool.AddLocal("cpu", "server", 200); err != nil {
		log.Fatal(err)
	}
	if _, err := pool.AddLocal("net", "server", 100); err != nil {
		log.Fatal(err)
	}

	// This session binds the components' abstract resource names to the
	// concrete brokers.
	binding := qosres.Binding{
		"Encoder": {"cpu": "cpu@server"},
		"Player":  {"net": "net@server"},
	}

	// --- 3. Snapshot -> QRG -> plan -----------------------------------
	snap, err := pool.Snapshot(0, []string{"cpu@server", "net@server"})
	if err != nil {
		log.Fatal(err)
	}
	g, err := qosres.BuildQRG(service, binding, snap)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := qosres.NewBasicPlanner().Plan(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("end-to-end QoS: %s (level %d of %d)\n",
		plan.EndToEnd.Name, plan.Rank, len(service.EndToEndRanking))
	fmt.Printf("selected path:  %s\n", plan.PathLevels)
	fmt.Printf("bottleneck:     %s at contention index %.2f\n", plan.Bottleneck, plan.Psi)
	for _, c := range plan.Choices {
		fmt.Printf("  %-8s %s -> %s, reserves %v\n", c.Comp, c.In.Name, c.Out.Name, c.Req)
	}

	// --- 4. Reserve, use, release -------------------------------------
	res, err := pool.ReserveAllAtomic(0, plan.Requirement())
	if err != nil {
		log.Fatal(err)
	}
	cpu, _ := pool.Get("cpu@server")
	net, _ := pool.Get("net@server")
	fmt.Printf("after reserve:  cpu avail %.0f/%.0f, net avail %.0f/%.0f\n",
		cpu.Available(), cpu.Capacity(), net.Available(), net.Capacity())

	if err := res.Release(10); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after release:  cpu avail %.0f/%.0f, net avail %.0f/%.0f\n",
		cpu.Available(), cpu.Capacity(), net.Available(), net.Capacity())
}
