// Contention demonstrates the runtime system architecture of section 3
// under real concurrency: QoSProxies deployed on the figure-9 hosts (one
// goroutine each), Resource Brokers registered per host with end-to-end
// network brokers held receiver-side, and many client sessions
// established in parallel through the three-phase protocol (report ->
// plan -> dispatch). As the resource pool drains, later sessions are
// planned onto different paths or downgraded, and eventually refused —
// with all partial reservations rolled back.
//
// Which sessions win, at which level, depends on how the goroutines
// interleave, so the program prints only what holds for every
// interleaving: each request is either established or refused, no book
// is overdrawn or overfilled, and releasing every session drains the
// books back to their capacities exactly.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sync"

	"qosres"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	topology := qosres.Figure9Topology()
	clock := &qosres.ManualClock{}
	pool := qosres.NewPool(topology)
	runtime := qosres.NewRuntime(clock)

	// Deploy a QoSProxy on every host.
	for _, h := range topology.Hosts() {
		if _, err := runtime.AddHost(h); err != nil {
			return err
		}
	}

	// Register brokers: a CPU broker on each server, a bandwidth broker
	// per link (deployed at the link's first endpoint), and the
	// end-to-end network brokers at the receiver side host.
	for i := 1; i <= 4; i++ {
		host := qosres.HostID(fmt.Sprintf("H%d", i))
		b, err := pool.AddLocal("cpu", host, 300)
		if err != nil {
			return err
		}
		if err := runtime.Deploy(host, b); err != nil {
			return err
		}
	}
	for _, l := range topology.Links() {
		b, err := pool.AddLink(l.ID, 500)
		if err != nil {
			return err
		}
		if err := runtime.Deploy(l.A, b); err != nil {
			return err
		}
	}
	// One service: components on H1 (sender) and H2 (processor), with
	// the end-to-end H1->H2 network resource owned by the receiver H2.
	net12, err := pool.Network("H1", "H2")
	if err != nil {
		return err
	}
	if err := runtime.Deploy("H2", net12); err != nil {
		return err
	}
	runtime.Start()
	defer runtime.Stop()

	service, err := qosres.NewService("feed",
		[]*qosres.Component{
			{
				ID: "Sender",
				In: []qosres.Level{{Name: "src", Vector: qosres.MustVector(qosres.P("rate", 30))}},
				Out: []qosres.Level{
					{Name: "hi", Vector: qosres.MustVector(qosres.P("rate", 30))},
					{Name: "lo", Vector: qosres.MustVector(qosres.P("rate", 15))},
				},
				Translate: qosres.TranslationTable{
					"src": {"hi": qosres.ResourceVector{"cpu": 30}, "lo": qosres.ResourceVector{"cpu": 12}},
				}.Func(),
				Resources: []string{"cpu"},
			},
			{
				ID: "Processor",
				In: []qosres.Level{
					{Name: "in-hi", Vector: qosres.MustVector(qosres.P("rate", 30))},
					{Name: "in-lo", Vector: qosres.MustVector(qosres.P("rate", 15))},
				},
				Out: []qosres.Level{
					{Name: "full", Vector: qosres.MustVector(qosres.P("rate", 30), qosres.P("detail", 2))},
					{Name: "lite", Vector: qosres.MustVector(qosres.P("rate", 15), qosres.P("detail", 1))},
				},
				Translate: qosres.TranslationTable{
					"in-hi": {"full": qosres.ResourceVector{"cpu": 25, "net": 60}},
					"in-lo": {
						"full": qosres.ResourceVector{"cpu": 45, "net": 30},
						"lite": qosres.ResourceVector{"cpu": 10, "net": 20},
					},
				}.Func(),
				Resources: []string{"cpu", "net"},
			},
		},
		[]qosres.ServiceEdge{{From: "Sender", To: "Processor"}},
		[]string{"full", "lite"})
	if err != nil {
		return err
	}
	binding := qosres.Binding{
		"Sender":    {"cpu": "cpu@H1"},
		"Processor": {"cpu": "cpu@H2", "net": "net:H1->H2"},
	}

	// Fire 24 concurrent session requests at the runtime. The main
	// QoSProxy for this service lives on H1.
	const sessions = 24
	var (
		wg          sync.WaitGroup
		mu          sync.Mutex
		established []*qosres.Session
		refused     int
	)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := runtime.Establish("H1", qosres.SessionSpec{
				Service: service,
				Binding: binding,
				Planner: qosres.NewBasicPlanner(),
			})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				refused++
				return
			}
			established = append(established, s)
		}()
	}
	wg.Wait()

	fmt.Fprintf(w, "%d concurrent session requests against cpu@H1=300, cpu@H2=300, net:H1->H2=500\n", sessions)
	fmt.Fprintf(w, "established + refused: %d\n", len(established)+refused)
	cpu1, _ := pool.Get("cpu@H1")
	cpu2, _ := pool.Get("cpu@H2")
	books := []qosres.Broker{cpu1, cpu2, net12}
	for _, b := range books {
		if a := b.Available(); a < 0 || a > b.Capacity() {
			return fmt.Errorf("%s holds %g of %g", b.Resource(), a, b.Capacity())
		}
	}
	fmt.Fprintln(w, "no book overdrawn or overfilled")

	// Release every session and verify the environment drains clean.
	clock.Advance(100)
	for _, s := range established {
		if err := s.Release(); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "after release: cpu@H1 %.0f, cpu@H2 %.0f, net:H1->H2 %.0f\n",
		cpu1.Available(), cpu2.Available(), net12.Available())
	return nil
}
