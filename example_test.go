package qosres_test

import (
	"fmt"
	"log"

	"qosres"
)

// buildExampleService defines a two-component service used by the
// runnable documentation examples.
func buildExampleService() (*qosres.Service, qosres.Binding) {
	hi := qosres.MustVector(qosres.P("rate", 30))
	lo := qosres.MustVector(qosres.P("rate", 15))
	encoder := &qosres.Component{
		ID:  "Encoder",
		In:  []qosres.Level{{Name: "src", Vector: hi}},
		Out: []qosres.Level{{Name: "hi", Vector: hi}, {Name: "lo", Vector: lo}},
		Translate: qosres.TranslationTable{
			"src": {"hi": qosres.ResourceVector{"cpu": 40}, "lo": qosres.ResourceVector{"cpu": 15}},
		}.Func(),
		Resources: []string{"cpu"},
	}
	player := &qosres.Component{
		ID: "Player",
		In: []qosres.Level{{Name: "in-hi", Vector: hi}, {Name: "in-lo", Vector: lo}},
		Out: []qosres.Level{
			{Name: "best", Vector: qosres.MustVector(qosres.P("rate", 30), qosres.P("delay", 1))},
			{Name: "ok", Vector: qosres.MustVector(qosres.P("rate", 15), qosres.P("delay", 2))},
		},
		Translate: qosres.TranslationTable{
			"in-hi": {"best": qosres.ResourceVector{"net": 60}},
			"in-lo": {"best": qosres.ResourceVector{"net": 80}, "ok": qosres.ResourceVector{"net": 25}},
		}.Func(),
		Resources: []string{"net"},
	}
	service, err := qosres.NewService("media",
		[]*qosres.Component{encoder, player},
		[]qosres.ServiceEdge{{From: "Encoder", To: "Player"}},
		[]string{"best", "ok"})
	if err != nil {
		log.Fatal(err)
	}
	return service, qosres.Binding{
		"Encoder": {"cpu": "cpu@server"},
		"Player":  {"net": "net@server"},
	}
}

// Example demonstrates the full reservation flow: model, snapshot, QRG,
// contention-aware plan, atomic multi-resource reservation.
func Example() {
	service, binding := buildExampleService()

	pool := qosres.NewPool(nil)
	pool.AddLocal("cpu", "server", 200)
	pool.AddLocal("net", "server", 100)

	snap, _ := pool.Snapshot(0, []string{"cpu@server", "net@server"})
	g, _ := qosres.BuildQRG(service, binding, snap)
	plan, _ := qosres.NewBasicPlanner().Plan(g)
	fmt.Printf("%s at Ψ=%.2f via %s\n", plan.EndToEnd.Name, plan.Psi, plan.Bottleneck)

	res, _ := pool.ReserveAllAtomic(0, plan.Requirement())
	defer res.Release(1)
	net, _ := pool.Get("net@server")
	fmt.Printf("net available: %.0f\n", net.Available())
	// Output:
	// best at Ψ=0.60 via net@server
	// net available: 40
}

// ExampleNewTradeoffPlanner shows the section 4.3.1 policy reacting to a
// falling availability trend on the bottleneck resource.
func ExampleNewTradeoffPlanner() {
	service, binding := buildExampleService()
	snap := &qosres.Snapshot{
		Avail: qosres.ResourceVector{"cpu@server": 200, "net@server": 100},
		Alpha: map[string]float64{"cpu@server": 1.0, "net@server": 0.5}, // net trending down
	}
	g, _ := qosres.BuildQRG(service, binding, snap)
	basic, _ := qosres.NewBasicPlanner().Plan(g)
	tradeoff, _ := qosres.NewTradeoffPlanner().Plan(g)
	fmt.Printf("basic:    %s (Ψ %.2f)\n", basic.EndToEnd.Name, basic.Psi)
	fmt.Printf("tradeoff: %s (Ψ %.2f)\n", tradeoff.EndToEnd.Name, tradeoff.Psi)
	// Output:
	// basic:    best (Ψ 0.60)
	// tradeoff: ok (Ψ 0.25)
}

// ExampleValidatePlan guards a transported plan against a changed
// snapshot before reserving it.
func ExampleValidatePlan() {
	service, binding := buildExampleService()
	rich := &qosres.Snapshot{
		Avail: qosres.ResourceVector{"cpu@server": 200, "net@server": 100},
		Alpha: map[string]float64{},
	}
	g, _ := qosres.BuildQRG(service, binding, rich)
	plan, _ := qosres.NewBasicPlanner().Plan(g)

	drained := &qosres.Snapshot{
		Avail: qosres.ResourceVector{"cpu@server": 200, "net@server": 10},
		Alpha: map[string]float64{},
	}
	g2, _ := qosres.BuildQRG(service, binding, drained)
	if err := qosres.ValidatePlan(g2, plan); err != nil {
		fmt.Println("stale plan rejected")
	}
	// Output:
	// stale plan rejected
}
