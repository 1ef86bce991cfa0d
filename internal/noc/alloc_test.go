package noc

import (
	"fmt"
	"testing"

	"mac3d/internal/queue"
	"mac3d/internal/sim"
)

// bulky stands in for a driver payload the size of the cube fabric's:
// large enough that copying it by value shows up.
type bulky [10]uint64

// steadyLoad drives f with every node sending one message per cycle to
// a rotating destination; refused sends are dropped. step advances one
// batch of cycles and is what the allocation guard measures.
func steadyLoad(f Fabric[bulky], nodes int) (step func()) {
	var now sim.Cycle
	sink := func(Message[bulky]) bool { return true }
	return func() {
		for end := now + 64; now < end; now++ {
			for src := 0; src < nodes; src++ {
				dst := (src + 1 + int(now)%(nodes-1)) % nodes
				f.Send(now, Message[bulky]{Src: src, Dst: dst, Flits: 1 + int(now)%MaxMessageFlits})
			}
			f.Tick(now)
			f.Deliver(now, sink)
		}
	}
}

// TestFabricSteadyStateAllocFree holds every topology to zero
// allocations per cycle once warm: Send, Tick and Deliver move messages
// through rings and a typed heap, never through a fresh slice.
func TestFabricSteadyStateAllocFree(t *testing.T) {
	for _, cfg := range []Config{
		{Topology: Ideal, Nodes: 8, LinkLatency: 20, LinkBandwidth: 2},
		{Topology: Ring, Nodes: 20, LinkLatency: 2, LinkBandwidth: 4, BufferFlits: 64, InjectDepth: 8},
		{Topology: Mesh, Nodes: 16, LinkLatency: 2, LinkBandwidth: 1, BufferFlits: 16, InjectDepth: 8},
	} {
		t.Run(cfg.Topology, func(t *testing.T) {
			f, err := New[bulky](cfg)
			if err != nil {
				t.Fatal(err)
			}
			step := steadyLoad(f, cfg.Nodes)
			for i := 0; i < 50; i++ {
				step() // warm: rings and heap reach their working size
			}
			if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
				t.Fatalf("%.0f allocations per 64 loaded cycles, want 0", allocs)
			}
			if f.Stats().Delivered == 0 {
				t.Fatal("no traffic delivered")
			}
		})
	}
}

// ring is one routed-fabric queue with the bound the flow control
// holds it to.
type ring struct {
	name string
	q    interface {
		Len() int
		Cap() int
		Stats() queue.Stats
	}
	bound int
}

func (f *routedFabric[P]) ringsWithBounds() []ring {
	var rs []ring
	for l, q := range f.transit {
		rs = append(rs, ring{fmt.Sprintf("transit[%d]", l), q, f.cfg.BufferFlits})
	}
	for n := range f.ports {
		for i := range f.ports[n] {
			rs = append(rs, ring{fmt.Sprintf("port[%d][%d]", n, i), f.ports[n][i].q, f.cfg.BufferFlits})
		}
		rs = append(rs, ring{fmt.Sprintf("inject[%d]", n), f.inject[n], f.cfg.InjectDepth})
		rs = append(rs, ring{fmt.Sprintf("eject[%d]", n), f.eject[n], f.cfg.BufferFlits})
	}
	return rs
}

// saturate floods f with one-flit messages (the smallest, so credits
// admit the most messages) from every node to every other node behind
// a closed sink for 300 cycles, then opens the sink until f drains. It
// fails the test if any ring ever holds more than its bound, or grows
// at all when it was built at its bound, and returns the rings. A ring
// built below its bound grows only when full, so it ends below twice
// the bound.
func saturate(t *testing.T, cfg Config) []ring {
	t.Helper()
	fab, err := New[int](cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := fab.(*routedFabric[int])
	rings := f.ringsWithBounds()
	caps := make([]int, len(rings))
	for i, r := range rings {
		caps[i] = r.q.Cap()
		if caps[i] != min(r.bound, ringPrealloc) {
			t.Fatalf("%s built with capacity %d, want %d", r.name, caps[i], min(r.bound, ringPrealloc))
		}
	}
	open := false
	sink := func(Message[int]) bool { return open }
	sent := 0
	for now := sim.Cycle(0); now < 20000; now++ {
		if now < 300 {
			for src := 0; src < cfg.Nodes; src++ {
				for d := 1; d < cfg.Nodes; d++ {
					if f.Send(now, Message[int]{Src: src, Dst: (src + d) % cfg.Nodes, Flits: 1}) {
						sent++
					}
				}
			}
		}
		open = now >= 300 && now%3 == 0
		f.Tick(now)
		f.Deliver(now, sink)
		for _, r := range rings {
			if r.q.Len() > r.bound {
				t.Fatalf("cycle %d: %s holds %d messages, bound %d", now, r.name, r.q.Len(), r.bound)
			}
		}
		if now > 300 && f.InFlight() == 0 {
			break
		}
	}
	if f.InFlight() != 0 || uint64(sent) != f.Stats().Delivered {
		t.Fatalf("did not drain: sent %d, delivered %d, in flight %d", sent, f.Stats().Delivered, f.InFlight())
	}
	for i, r := range rings {
		if got := r.q.Cap(); got != caps[i] && (caps[i] == r.bound || got >= 2*r.bound) {
			t.Errorf("%s grew from %d to %d (bound %d)", r.name, caps[i], got, r.bound)
		}
	}
	return rings
}

// TestRoutedQueuesFillToCreditBound shows the flow-control bounds the
// rings are sized from are exact. On a two-node mesh every queue sits
// on the one path between the nodes, and a hop latency longer than the
// buffer keeps a full buffer of credits in flight on each link, so
// every transit, port, injection and ejection ring fills to exactly
// its bound. Larger rings and meshes, whose routing leaves some queues
// short of their bound, must still stay within it without growing.
func TestRoutedQueuesFillToCreditBound(t *testing.T) {
	for _, r := range saturate(t, Config{Topology: Mesh, Nodes: 2, LinkLatency: 12, LinkBandwidth: 4, BufferFlits: 8, InjectDepth: 4}) {
		if got := r.q.Stats().MaxOccupancy; got != r.bound {
			t.Errorf("%s peaked at %d messages, want its bound %d", r.name, got, r.bound)
		}
	}
	saturate(t, Config{Topology: Mesh, Nodes: 16, LinkLatency: 12, LinkBandwidth: 4, BufferFlits: 8, InjectDepth: 4})
	saturate(t, Config{Topology: Ring, Nodes: 20, LinkLatency: 2, LinkBandwidth: 4, BufferFlits: 64, InjectDepth: 8})
	// Above ringPrealloc a ring starts smaller and doubles on demand,
	// still never past its bound.
	saturate(t, Config{Topology: Ring, Nodes: 4, LinkLatency: 100, LinkBandwidth: 4, BufferFlits: 128, InjectDepth: 100})
}
