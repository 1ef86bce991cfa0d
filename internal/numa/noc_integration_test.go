package numa

import (
	"testing"

	"mac3d/internal/chaos"
	"mac3d/internal/noc"
)

// TestRingMeshDiverge runs the same 16-node workload on a ring and a
// mesh and requires the topologies to be distinguishable: different
// hop structure, different finish time, same completed work. This is
// the property the abl-noc experiment sweeps.
func TestRingMeshDiverge(t *testing.T) {
	run := func(topo string) *Result {
		cfg := DefaultConfig()
		cfg.Nodes = 16
		cfg.CoresPerNode = 1
		cfg.NoC = noc.Config{Topology: topo, LinkLatency: 5, LinkBandwidth: 2}
		res, err := Run(cfg, goldTrace(16, 32))
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		if got := res.RequestLatency.Count(); got != 16*32 {
			t.Fatalf("%s retired %d requests, want %d", topo, got, 16*32)
		}
		return res
	}
	ring := run(noc.Ring)
	mesh := run(noc.Mesh)
	if ring.Cycles == mesh.Cycles {
		t.Errorf("ring and mesh finished in the same %d cycles; topologies indistinguishable", ring.Cycles)
	}
	if ring.NoC.AvgHops() == mesh.NoC.AvgHops() {
		t.Errorf("ring and mesh report the same mean hop count %.3f", ring.NoC.AvgHops())
	}
	if len(ring.NoC.Links) != 32 { // 16 cw + 16 ccw
		t.Errorf("ring has %d links, want 32", len(ring.NoC.Links))
	}
	if len(mesh.NoC.Links) != 48 { // 4x4 mesh: 2*(3*4)*2 directed
		t.Errorf("mesh has %d links, want 48", len(mesh.NoC.Links))
	}
}

// TestChaosLinkStallsPerturbRun injects transient link stalls into a
// ring run and checks they are injected, accounted, and survivable.
func TestChaosLinkStallsPerturbRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 8
	cfg.CoresPerNode = 2
	cfg.NoC = noc.Config{Topology: noc.Ring, LinkLatency: 5, LinkBandwidth: 1}
	base, err := Run(cfg, goldTrace(8, 48))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chaos = chaos.Profile{LinkRate: 0.05, LinkStall: 200, Seed: 42}
	perturbed, err := Run(cfg, goldTrace(8, 48))
	if err != nil {
		t.Fatal(err)
	}
	if perturbed.Chaos == nil || perturbed.Chaos.LinkStalls == 0 {
		t.Fatalf("chaos stats = %v, want injected link stalls", perturbed.Chaos)
	}
	if _, chaosStalls := perturbed.NoC.StallCycles(); chaosStalls == 0 {
		t.Error("no chaos stall cycles accounted on any link")
	}
	if perturbed.Cycles < base.Cycles {
		t.Errorf("perturbed run finished earlier (%d) than baseline (%d)",
			perturbed.Cycles, base.Cycles)
	}
	if got := perturbed.RequestLatency.Count(); got != base.RequestLatency.Count() {
		t.Errorf("perturbed run retired %d requests, baseline %d", got,
			base.RequestLatency.Count())
	}
}
