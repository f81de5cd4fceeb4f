package workload_test

import (
	"testing"

	"wdmlat/internal/ospersona"
	"wdmlat/internal/workload"
)

// TestStormSteadyStateAllocFree pins the storm's per-packet path — arrival
// re-arm, NIC receive and drain, the NIC DPC and the arrival-latency
// histogram — as allocation-free once the machine is warm. A closure
// allocated per arrival would cost one allocation per offered packet: 64
// per simulated millisecond at this rate.
func TestStormSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	m := build(t, ospersona.NT4, 1)
	m.EnableStormAccounting()
	storm := workload.NewStorm(m, workload.StormConfig{PPS: 64 * 1024})
	storm.Start()
	m.RunFor(m.MS(200))
	before := storm.Offered()
	ms := m.MS(1)
	allocs := testing.AllocsPerRun(100, func() { m.RunFor(ms) })
	if offered := storm.Offered() - before; offered < 101*32 {
		t.Fatalf("storm offered only %d packets over 101 ms", offered)
	}
	if allocs >= 1 {
		t.Fatalf("storm steady state allocates %.0f times per simulated ms, want 0", allocs)
	}
}
