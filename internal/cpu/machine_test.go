package cpu

import (
	"testing"

	"mac3d/internal/core"
	"mac3d/internal/hmc"
	"mac3d/internal/memreq"
	"mac3d/internal/noc"
	"mac3d/internal/sim"
)

// TestSaturatedRemoteQueueKeepsPerSourceFIFO runs a four-node machine
// whose Remote Access Queues saturate (one message per node per cycle
// over a 57-cycle ideal fabric) and asserts, via the router drain
// hook, that every node sees each thread's requests in issue (tag)
// order. The pre-NoC model violated this under saturation: a delivery
// refused by a full Remote Access Queue was re-queued one cycle out,
// and a younger same-source message due earlier could pop past it.
func TestSaturatedRemoteQueueKeepsPerSourceFIFO(t *testing.T) {
	nodes := make([]*Node, 4)
	lastTag := map[[2]int]int{}
	for i := range nodes {
		cfg := DefaultConfig()
		cfg.Router.NodeID, cfg.Router.Nodes = i, len(nodes)
		nodes[i] = MustNewNode(cfg, core.MustNew(core.DefaultConfig()), hmc.MustNewDevice(hmc.DefaultConfig()))
		nodes[i].router.OnDrain = func(req memreq.RawRequest, _ sim.Cycle) {
			if req.Fence {
				return
			}
			key := [2]int{i, int(req.Thread)}
			if prev, ok := lastTag[key]; ok && int(req.Tag) <= prev {
				t.Errorf("node %d drained thread %d tag %d after tag %d", i, req.Thread, req.Tag, prev)
			}
			lastTag[key] = int(req.Tag)
		}
	}
	m, err := newMachine(nodes, &noc.Config{Topology: noc.Ideal, Nodes: len(nodes), LinkLatency: 57, LinkBandwidth: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(seqTrace(8, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.NoC().DeliverRetries == 0 {
		t.Fatal("expected the Remote Access Queue to refuse deliveries in this run")
	}
}
