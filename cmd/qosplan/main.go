// Command qosplan computes an end-to-end multi-resource reservation plan
// for a service session described in JSON: the component-based
// QoS-Resource Model, the session's resource binding, and the current
// resource availability. It prints the selected end-to-end QoS level,
// the per-component (Qin, Qout) choices, and the plan's bottleneck.
//
// Usage:
//
//	qosplan -in session.json [-alg basic|tradeoff|twopass|random|exhaustive] [-seed 1]
//	qosplan -example        # print a ready-to-edit example session file
//
// The JSON schema is documented in qosres/internal/spec; `qosplan
// -example` emits a complete working document.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"qosres"
	"qosres/internal/spec"
)

func plannerFor(name string, seed int64) (qosres.Planner, error) {
	switch name {
	case "basic":
		return qosres.NewBasicPlanner(), nil
	case "tradeoff":
		return qosres.NewTradeoffPlanner(), nil
	case "twopass":
		return qosres.NewTwoPassPlanner(), nil
	case "random":
		return qosres.NewRandomPlanner(seed), nil
	case "exhaustive":
		return qosres.NewExhaustivePlanner(), nil
	}
	return nil, fmt.Errorf("unknown algorithm %q", name)
}

func main() {
	var (
		in      = flag.String("in", "", "session spec JSON file (- for stdin)")
		alg     = flag.String("alg", "basic", "algorithm: basic, tradeoff, twopass, random, exhaustive")
		seed    = flag.Int64("seed", 1, "seed for the random algorithm")
		example = flag.Bool("example", false, "print an example session spec and exit")
		dot     = flag.Bool("dot", false, "print the session's QoS-Resource Graph in Graphviz DOT format and exit")
		counts  = flag.Bool("counts", false, "also print the number of feasible plans per end-to-end level")
	)
	flag.Parse()

	if *example {
		fmt.Println(exampleSpec)
		return
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "qosplan: -in required (or -example)")
		os.Exit(2)
	}
	var data []byte
	var err error
	if *in == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(*in)
	}
	if err != nil {
		fatal(err)
	}
	doc, err := spec.Parse(data)
	if err != nil {
		fatal(err)
	}
	service, binding, snap, err := doc.Build()
	if err != nil {
		fatal(err)
	}
	g, err := qosres.BuildQRG(service, binding, snap)
	if err != nil {
		fatal(err)
	}
	if *dot {
		fmt.Print(g.DOT())
		return
	}
	planner, err := plannerFor(*alg, *seed)
	if err != nil {
		fatal(err)
	}
	plan, err := planner.Plan(g)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("service:     %s (%d components, QRG %d nodes / %d edges)\n",
		service.Name, len(service.Components), g.NodeCount(), g.EdgeCount())
	fmt.Printf("algorithm:   %s\n", planner.Name())
	fmt.Printf("end-to-end:  %s (level %d of %d)\n", plan.EndToEnd.Name, plan.Rank, len(service.EndToEndRanking))
	if plan.PathLevels != "" {
		fmt.Printf("path:        %s\n", plan.PathLevels)
	}
	fmt.Printf("bottleneck:  %s at contention index %.4f\n", plan.Bottleneck, plan.Psi)
	fmt.Println("reservation plan:")
	for _, c := range plan.Choices {
		fmt.Printf("  %-14s %s -> %s  reserves %v  (Ψe %.4f)\n", c.Comp, c.In.Name, c.Out.Name, c.Req, c.Psi)
	}
	fmt.Printf("total requirement: %v\n", plan.Requirement())
	if *counts {
		fmt.Println("feasible plans per end-to-end level:")
		for _, c := range qosres.FeasiblePlanCounts(g) {
			fmt.Printf("  %-10s (level %d): %.0f\n", c.Level, c.Rank, c.Plans)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qosplan:", err)
	os.Exit(1)
}

const exampleSpec = `{
  "name": "media",
  "components": [
    {
      "id": "Encoder",
      "in":  {"src": {"rate": 30}},
      "out": {"hi": {"rate": 30}, "lo": {"rate": 15}},
      "outOrder": ["hi", "lo"],
      "table": {"src": {"hi": {"cpu": 40}, "lo": {"cpu": 15}}},
      "resources": ["cpu"]
    },
    {
      "id": "Player",
      "in":  {"in-hi": {"rate": 30}, "in-lo": {"rate": 15}},
      "out": {"best": {"rate": 30, "delay": 1}, "ok": {"rate": 15, "delay": 2}},
      "outOrder": ["best", "ok"],
      "table": {
        "in-hi": {"best": {"net": 60}},
        "in-lo": {"best": {"net": 80}, "ok": {"net": 25}}
      },
      "resources": ["net"]
    }
  ],
  "edges": [{"from": "Encoder", "to": "Player"}],
  "ranking": ["best", "ok"],
  "binding": {
    "Encoder": {"cpu": "cpu@server"},
    "Player":  {"net": "net@server"}
  },
  "availability": {"cpu@server": 200, "net@server": 100},
  "alpha": {"net@server": 0.9}
}`
