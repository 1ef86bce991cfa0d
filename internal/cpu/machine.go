package cpu

import (
	"fmt"
	"strings"

	"mac3d/internal/chaos"
	"mac3d/internal/hmc"
	"mac3d/internal/memreq"
	"mac3d/internal/noc"
	"mac3d/internal/obs"
	"mac3d/internal/sim"
	"mac3d/internal/stats"
	"mac3d/internal/trace"
)

// Machine is the paper's §3 system: N identical nodes stepped by one
// cycle loop and, when N > 1, joined by a noc fabric carrying the
// request router's Global/Remote traffic and the response router's
// remote returns. A single-node run (Node.Run) is the one-node machine
// with no fabric.
type Machine struct {
	nodes []*Node
	// fab is the interconnect; nil for a lone node.
	fab noc.Fabric[payload]
	// land is fab's delivery callback, bound once so the per-cycle
	// Deliver call allocates no closure; landAt is the cycle it lands
	// messages at.
	land   func(noc.Message[payload]) bool
	landAt sim.Cycle
	// reqBudget bounds request injections per node per cycle: the
	// ideal fabric keeps the legacy LinkBandwidth messages-per-cycle
	// semantics; routed fabrics backpressure through Send instead.
	reqBudget int
	// chaos is the run's engine, ticked once per cycle; its NoC and
	// cube link stalls are applied here, the node-side stressors by
	// the nodes it was handed to through Node.SetChaos.
	chaos *chaos.Engine
	// cubeLinksPerDev is each device's intra-cube fabric link count
	// (0 for the ideal cube); the cubelink stressor's global link id
	// l targets node l/cubeLinksPerDev, link l%cubeLinksPerDev.
	cubeLinksPerDev int
	// obs is the run's observability handle; nil when disabled.
	obs       *obs.Obs
	watchdog  *sim.Watchdog
	maxCycles sim.Cycle
}

// newMachine steps nodes with no fabric. The first node's Config
// supplies the watchdog and the cycle limit. Every device's cube links
// are declared to eng; the ideal cube has none, so the cubelink roll
// stays gated off and pre-cube RNG schedules replay bit-for-bit.
func newMachine(nodes []*Node, eng *chaos.Engine) *Machine {
	cfg := nodes[0].cfg
	m := &Machine{
		nodes:           nodes,
		chaos:           eng,
		cubeLinksPerDev: nodes[0].dev.CubeLinks(),
		watchdog:        sim.NewWatchdog(cfg.StallLimit),
		maxCycles:       cfg.MaxCycles,
	}
	eng.SetCubeLinks(m.cubeLinksPerDev * len(nodes))
	return m
}

// NewMachine joins nodes over a fabric built from net; node i must
// route as NodeID i of len(nodes). eng (nil disables) is the run's
// chaos engine: NewMachine declares the fabric's links to it. Nodes
// joined here should not be handed the engine through SetChaos — the
// node-side stressors model one node's adversity and stay inert on a
// machine.
func NewMachine(nodes []*Node, net noc.Config, eng *chaos.Engine) (*Machine, error) {
	for i, n := range nodes {
		if rc := n.cfg.Router; rc.NodeID != i || rc.Nodes != len(nodes) {
			return nil, fmt.Errorf("cpu: node %d routes as node %d of %d", i, rc.NodeID, rc.Nodes)
		}
	}
	net = net.WithDefaults()
	fab, err := noc.New[payload](net)
	if err != nil {
		return nil, fmt.Errorf("cpu: %w", err)
	}
	m := newMachine(nodes, eng)
	m.fab = fab
	m.land = m.landMessage
	m.reqBudget = 1 << 30
	if net.Topology == noc.Ideal {
		m.reqBudget = net.LinkBandwidth
	}
	for _, n := range nodes {
		n.fab = fab
	}
	eng.SetLinks(fab.Links())
	return m, nil
}

// AttachObs wires every node under a "nodeN." name prefix, so the
// shared registry and recorder keep per-node series apart, plus the
// system-wide interconnect probes. Call once before Run; nil is a
// no-op.
func (m *Machine) AttachObs(o *obs.Obs) {
	m.obs = o
	if !o.Enabled() {
		return
	}
	for i, n := range m.nodes {
		n.AttachObs(o.WithPrefix(fmt.Sprintf("node%d.", i)))
	}
	o.Reg().Func("numa.remote_requests", func() float64 {
		var sent uint64
		for _, n := range m.nodes {
			sent += n.remoteSent
		}
		return float64(sent)
	})
	o.Rec().Watch("numa.net.inflight", func() float64 { return float64(m.fab.InFlight()) })
	m.fab.AttachObs(o)
}

// Load distributes a trace's threads across the nodes: thread t is
// homed on node t % N, at index t / N there.
func (m *Machine) Load(tr *trace.Trace) error {
	for i, n := range m.nodes {
		var homed trace.Trace
		for t := i; t < len(tr.Threads); t += len(m.nodes) {
			homed.Threads = append(homed.Threads, tr.Threads[t])
		}
		if err := n.Load(&homed); err != nil {
			return fmt.Errorf("cpu: node %d: %w", i, err)
		}
	}
	return nil
}

// NoC returns the fabric's live statistics.
func (m *Machine) NoC() *noc.Stats { return m.fab.Stats() }

// Run replays the loaded trace to completion and returns each node's
// results, all carrying the machine's makespan. Each cycle rolls the
// chaos engine, ticks every node in id order — retries, threads,
// outbound traffic, router drain, coalescer, responses — then advances
// the fabric and lands its arrivals.
func (m *Machine) Run() ([]*Result, error) {
	for now := sim.Cycle(0); now < m.maxCycles; now++ {
		if m.chaos != nil {
			m.tickChaos(now)
		}
		for _, n := range m.nodes {
			if n.chaos != nil {
				n.tickChaos()
			}
			n.pumpRetries(now)
			n.tickCores(now)
			if m.fab != nil {
				n.pumpOutbound(now, m.reqBudget)
			}
			n.router.DrainToMAC(n.coal, now)
			n.tickCoalescer(now)
			n.deliverResponses(now)
		}
		if m.fab != nil {
			m.fab.Tick(now)
			m.landMessages(now)
		}
		m.obs.Rec().Sample(uint64(now))
		if m.drained() {
			rs := make([]*Result, len(m.nodes))
			for i, n := range m.nodes {
				rs[i] = n.result(now + 1)
			}
			return rs, nil
		}
		if m.watchdog.Check(now, m.progress()) {
			return nil, m.stallError(now)
		}
	}
	return nil, fmt.Errorf("cpu: run exceeded MaxCycles=%d (deadlock?)", m.maxCycles)
}

// tickChaos rolls the chaos engine for this cycle and forwards the
// link stressors: a pending NoC link stall to the fabric, a pending
// cube link stall to the device owning that link.
func (m *Machine) tickChaos(now sim.Cycle) {
	m.chaos.Tick(now)
	if l, until, ok := m.chaos.TakeLinkStall(); ok && m.fab != nil {
		m.fab.StallLink(l, until)
	}
	if l, until, ok := m.chaos.TakeCubeLinkStall(); ok {
		n := m.nodes[(l/m.cubeLinksPerDev)%len(m.nodes)]
		n.dev.StallCubeLink(l%m.cubeLinksPerDev, until)
	}
}

// progress sums the nodes' forward-progress counters for the watchdog.
func (m *Machine) progress() uint64 {
	var p uint64
	for _, n := range m.nodes {
		p += n.progress
	}
	return p
}

// drained reports whether all work has retired on every node and
// nothing is left in the fabric.
func (m *Machine) drained() bool {
	if m.fab != nil && m.fab.InFlight() > 0 {
		return false
	}
	for _, n := range m.nodes {
		if !n.drained() {
			return false
		}
	}
	return true
}

// stallError snapshots the machine into a *StallError: a lone node's
// diagnostics line by line, a multi-node machine's as one line per
// node after the fabric's occupancy.
func (m *Machine) stallError(now sim.Cycle) error {
	e := &StallError{Cycle: now, StallLimit: m.watchdog.Limit()}
	var kvs []stats.KV
	if m.fab != nil {
		kvs = append(kvs, stats.KV{Key: "interconnect in flight", Value: m.fab.InFlight()})
	}
	for i, n := range m.nodes {
		nkvs := n.stallReport(e, now)
		if len(m.nodes) == 1 {
			kvs = append(kvs, nkvs...)
			continue
		}
		parts := make([]string, len(nkvs))
		for j, kv := range nkvs {
			parts[j] = fmt.Sprintf("%s=%v", kv.Key, kv.Value)
		}
		kvs = append(kvs, stats.KV{Key: fmt.Sprintf("node %d", i), Value: strings.Join(parts, "; ")})
	}
	if cs := m.chaos.Stats(); cs != nil {
		kvs = append(kvs, stats.KV{Key: "chaos", Value: cs.String()})
	}
	e.Dump = stats.FormatKV(kvs)
	return e
}

// payload is what a message carries across the fabric: either a
// request bound for the destination's Remote Access Queue or a
// response retiring a target at its home node.
type payload struct {
	// isResponse selects the response interpretation.
	isResponse bool
	// poisoned marks a response whose transaction failed on the link;
	// the target retires with an error status.
	poisoned bool
	req      memreq.RawRequest
	target   memreq.Target
}

// reqFlits sizes a request message: one 16B header flit, plus one
// data flit when the request carries store/atomic data (raw request
// sizes are capped at one flit).
func reqFlits(r memreq.RawRequest) int {
	if r.Store || r.Atomic {
		return 2
	}
	return 1
}

// respFlits sizes a per-target response: reads and atomics return a
// data flit on top of the header; a write ack is a bare header.
func respFlits(k hmc.Kind) int {
	if k == hmc.Write {
		return 1
	}
	return 2
}

// pumpOutbound moves the node's outbound traffic onto the fabric:
// first any responses the fabric refused earlier, then up to budget
// requests from the Global Access Queue. Routed fabrics take requests
// until the injection queue refuses.
func (n *Node) pumpOutbound(now sim.Cycle, budget int) {
	for msg := n.respOut.Front(); msg != nil; msg = n.respOut.Front() {
		if !n.fab.Send(now, *msg) {
			return
		}
		n.respOut.Pop()
		n.progress++
	}
	for sent := 0; sent < budget; sent++ {
		out, ok := n.router.PeekOutbound()
		if !ok {
			return
		}
		msg := noc.Message[payload]{
			Src:     n.cfg.Router.NodeID,
			Dst:     out.Dest,
			Flits:   reqFlits(out.Req),
			Payload: payload{req: out.Req},
		}
		if !n.fab.Send(now, msg) {
			return
		}
		n.router.PopOutbound()
	}
}

// returnRemote sends a target this node served back to its thread's
// home node (§3.3's remote-return path). A refused send parks the
// response, retried ahead of requests next cycle; the ideal fabric
// never refuses.
func (n *Node) returnRemote(home int, tgt memreq.Target, kind hmc.Kind, poisoned bool, now sim.Cycle) {
	n.remoteServed++
	msg := noc.Message[payload]{
		Src:     n.cfg.Router.NodeID,
		Dst:     home,
		Flits:   respFlits(kind),
		Payload: payload{isResponse: true, poisoned: poisoned, target: tgt},
	}
	if !n.fab.Send(now, msg) {
		n.respOut.PushGrow(msg)
	}
}

// landMessages lands arrived fabric messages. A response retires its
// target at the home node; a request whose owner's Remote Access Queue
// is full stays queued in the fabric — without letting younger traffic
// from its source pass it — and is offered again next cycle.
func (m *Machine) landMessages(now sim.Cycle) {
	m.landAt = now
	m.fab.Deliver(now, m.land)
}

// landMessage lands one arrived message at cycle landAt.
func (m *Machine) landMessage(msg noc.Message[payload]) bool {
	dst := m.nodes[msg.Dst]
	if msg.Payload.isResponse {
		// Machine nodes keep no ledger (DESIGN §9), so the
		// transaction's extent is not carried across the fabric.
		dst.retire(msg.Payload.target, 0, 0, msg.Payload.poisoned, m.landAt)
		return true
	}
	return dst.router.OfferRemote(msg.Payload.req)
}
