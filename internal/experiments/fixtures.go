package experiments

import (
	"qosres/internal/broker"
	"qosres/internal/qos"
	"qosres/internal/sim"
	"qosres/internal/svc"
	"qosres/internal/topo"
	"qosres/internal/workload"
)

// PlanBenchChain is the figure-9 deployment's S1 chain (family A tables
// at the simulator's calibrated base scale) bound to its real placement:
// server CPU, proxy CPU, server->proxy and proxy->client links. The
// companion snapshot is generous so no edge prunes and the benchmark
// exercises the full graph.
func PlanBenchChain() (*svc.Service, svc.Binding, *broker.Snapshot) {
	service := workload.Chain("S1", workload.FamilyOf(1), workload.Options{BaseScale: sim.DefaultBaseScale})

	server := topo.ServerHost(1)
	proxy := topo.ServerHost(topo.ProxyServerFor(1))
	client := topo.DomainHost(1)
	cpuS := broker.LocalResourceID(workload.ResCPU, server)
	cpuP := broker.LocalResourceID(workload.ResCPU, proxy)
	netSP := broker.NetResourceID(server, proxy)
	netPC := broker.NetResourceID(proxy, client)

	binding := svc.Binding{
		workload.CompServer: {workload.ResCPU: cpuS},
		workload.CompProxy:  {workload.ResCPU: cpuP, workload.ResNet: netSP},
		workload.CompClient: {workload.ResNet: netPC},
	}
	avail := qos.ResourceVector{}
	alpha := map[string]float64{}
	for _, r := range []string{cpuS, cpuP, netSP, netPC} {
		avail[r] = 1e6
		alpha[r] = 1
	}
	return service, binding, &broker.Snapshot{Avail: avail, Alpha: alpha}
}

// PlanBenchDag is the fan-in DAG example (figure 6 shape) with its
// canonical binding and snapshot.
func PlanBenchDag() (*svc.Service, svc.Binding, *broker.Snapshot) {
	return workload.DagService(), workload.DagBinding(), workload.DagSnapshot()
}
