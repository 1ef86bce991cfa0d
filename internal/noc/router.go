package noc

import (
	"fmt"

	"mac3d/internal/obs"
	"mac3d/internal/queue"
	"mac3d/internal/sim"
)

// traceEmitInterval is how often (in cycles) the routed fabric emits a
// per-link buffer-occupancy counter event when tracing is enabled.
const traceEmitInterval = 256

// ringPrealloc caps the capacity a fabric ring is built with. Every
// ring's occupancy is bounded by the flow control (see newRouted); a
// ring whose bound is at most this is built at that bound and never
// grows, which covers the default configurations. A larger bound —
// buffers may be configured up to 2^20 flits on up to 1024 nodes —
// starts here and doubles on demand, so a huge configuration costs
// memory only for the occupancy it reaches.
const ringPrealloc = 64

// routedMsg wraps a message with its in-network bookkeeping.
type routedMsg[P any] struct {
	m    Message[P]
	hops int
	sent sim.Cycle
}

// transitMsg is one message propagating across a link.
type transitMsg[P any] struct {
	arrive sim.Cycle
	msg    routedMsg[P]
}

// inPort is one router input buffer, fed by exactly one link. Space
// is measured in flits; the upstream sender's credit counter mirrors
// the free space, so arrivals never overflow.
type inPort[P any] struct {
	linkID    int
	q         *queue.FIFO[routedMsg[P]]
	usedFlits int
}

// routedFabric runs the ring and mesh topologies: store-and-forward
// routers with FLIT-serialized links and credit-based flow control.
type routedFabric[P any] struct {
	cfg  Config
	topo *topology

	// Per-link state, indexed by link id.
	busyUntil  []sim.Cycle
	stallUntil []sim.Cycle
	credits    []int // free flits in the downstream input buffer
	transit    []*queue.FIFO[transitMsg[P]]

	// Per-node state.
	ports      [][]inPort[P]
	inject     []*queue.FIFO[routedMsg[P]]
	eject      []*queue.FIFO[routedMsg[P]]
	ejectFlits []int
	rr         []int // switch-allocation round-robin start per node

	// ringFree tracks unreserved buffer flits per directional ring;
	// injection must keep it above bubbleReserve (critical-bubble flow
	// control), which is what makes the ring's cyclic channel
	// dependency deadlock-free.
	ringFree []int
	// bubbleReserve = nodes*(MaxMessageFlits-1) + 1: if every one of
	// the ring's node buffers had less than a max message free, the
	// ring's total free space would be at most nodes*(MaxMessageFlits-1)
	// — so above the reserve, some buffer can always admit any head
	// message, and that hole rotates upstream until every head moves.
	// A plain one-bubble reserve is not enough with variable-size
	// messages: the free space can fragment into sub-message holes.
	bubbleReserve int

	st       Stats
	inflight int
	tracer   *obs.Tracer
}

func newRouted[P any](cfg Config) (*routedFabric[P], error) {
	var topo *topology
	var err error
	switch cfg.Topology {
	case Ring:
		topo = buildRing(cfg.Nodes)
	case Mesh:
		topo, err = buildMesh(cfg.Nodes, cfg.MeshCols)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("noc: no routed engine for topology %q", cfg.Topology)
	}
	f := &routedFabric[P]{
		cfg:           cfg,
		topo:          topo,
		busyUntil:     make([]sim.Cycle, len(topo.links)),
		stallUntil:    make([]sim.Cycle, len(topo.links)),
		credits:       make([]int, len(topo.links)),
		transit:       make([]*queue.FIFO[transitMsg[P]], len(topo.links)),
		ports:         make([][]inPort[P], cfg.Nodes),
		inject:        make([]*queue.FIFO[routedMsg[P]], cfg.Nodes),
		eject:         make([]*queue.FIFO[routedMsg[P]], cfg.Nodes),
		ejectFlits:    make([]int, cfg.Nodes),
		rr:            make([]int, cfg.Nodes),
		ringFree:      make([]int, topo.rings),
		bubbleReserve: cfg.Nodes*(MaxMessageFlits-1) + 1,
		st:            Stats{Topology: cfg.Topology},
	}
	// Ring sizes come from bounds the flow control enforces exactly.
	// Every message is at least one flit, and a link's credits cover
	// its downstream input buffer, so a link's transit queue and its
	// input port each hold at most BufferFlits messages; the ejection
	// check caps an eject queue at BufferFlits flits, and Send caps an
	// injection queue at InjectDepth messages.
	buf := min(cfg.BufferFlits, ringPrealloc)
	for n := 0; n < cfg.Nodes; n++ {
		f.ports[n] = make([]inPort[P], topo.ports[n])
		f.inject[n] = queue.New[routedMsg[P]](min(cfg.InjectDepth, ringPrealloc))
		f.eject[n] = queue.New[routedMsg[P]](buf)
	}
	for _, l := range topo.links {
		f.credits[l.id] = cfg.BufferFlits
		f.transit[l.id] = queue.New[transitMsg[P]](buf)
		f.ports[l.to][l.port] = inPort[P]{linkID: l.id, q: queue.New[routedMsg[P]](buf)}
		if l.ring >= 0 {
			f.ringFree[l.ring] += cfg.BufferFlits
		}
		f.st.Links = append(f.st.Links, LinkStats{From: l.from, To: l.to, Class: l.class})
	}
	return f, nil
}

func (f *routedFabric[P]) Send(now sim.Cycle, m Message[P]) bool {
	switch {
	case m.Flits <= 0:
		m.Flits = 1
	case m.Flits > MaxMessageFlits:
		m.Flits = MaxMessageFlits
	}
	rm := routedMsg[P]{m: m, sent: now}
	if m.Src == m.Dst {
		// Zero-hop transfer: straight to the ejection buffer.
		if f.ejectFlits[m.Src]+m.Flits > f.cfg.BufferFlits {
			f.st.InjectRejects++
			return false
		}
		f.eject[m.Src].PushGrow(rm)
		f.ejectFlits[m.Src] += m.Flits
	} else {
		if f.inject[m.Src].Len() >= f.cfg.InjectDepth {
			f.st.InjectRejects++
			return false
		}
		f.inject[m.Src].PushGrow(rm)
	}
	f.inflight++
	f.st.Sent++
	f.st.FlitsSent += uint64(m.Flits)
	return true
}

// Tick advances one cycle: arrivals land in input buffers, each router
// moves at most one message per input port (eject or forward, with
// in-network traffic taking priority over injection), then each node
// tries to inject its queue head.
func (f *routedFabric[P]) Tick(now sim.Cycle) {
	// 1. Arrivals. Buffer space was reserved by the sender's credits.
	for l, q := range f.transit {
		for t := q.Front(); t != nil && t.arrive <= now; t = q.Front() {
			p := &f.ports[f.topo.links[l].to][f.topo.links[l].port]
			p.q.PushGrow(t.msg)
			p.usedFlits += t.msg.m.Flits
			if p.usedFlits > f.st.Links[l].MaxBufferFlits {
				f.st.Links[l].MaxBufferFlits = p.usedFlits
			}
			q.Pop()
		}
	}
	// 2. Switch allocation, round-robin over input ports for fairness.
	for n := range f.ports {
		np := len(f.ports[n])
		for k := 0; k < np; k++ {
			p := &f.ports[n][(f.rr[n]+k)%np]
			head := p.q.Front()
			if head == nil {
				continue
			}
			if head.m.Dst == n {
				// Eject into the (bounded) delivery buffer.
				if f.ejectFlits[n]+head.m.Flits > f.cfg.BufferFlits {
					continue
				}
				f.eject[n].PushGrow(*head)
				f.ejectFlits[n] += head.m.Flits
				f.popPort(p, head.m.Flits)
				continue
			}
			out := f.topo.route(n, head.m.Dst)
			if !f.trySend(now, out, head, false) {
				continue
			}
			f.popPort(p, head.m.Flits)
		}
		if np > 0 {
			f.rr[n] = (f.rr[n] + 1) % np
		}
	}
	// 3. Injection (loses to in-network traffic on a contended link).
	for n, q := range f.inject {
		head := q.Front()
		if head == nil {
			continue
		}
		out := f.topo.route(n, head.m.Dst)
		if !f.trySend(now, out, head, true) {
			continue
		}
		q.Pop()
	}
	if f.tracer != nil && now%traceEmitInterval == 0 {
		f.emitTrace(now)
	}
}

// popPort removes the head message from an input buffer and returns
// its flits as credits to the upstream sender (idealized zero-latency
// credit wires; the buffer bound itself is still strictly enforced).
func (f *routedFabric[P]) popPort(p *inPort[P], flits int) {
	p.q.Pop()
	p.usedFlits -= flits
	f.credits[p.linkID] += flits
	if r := f.topo.links[p.linkID].ring; r >= 0 {
		f.ringFree[r] += flits
	}
}

// trySend starts serializing head onto link out at cycle now. Inject
// marks a first hop, which on a ring must keep ringFree above
// bubbleReserve (critical-bubble flow control); forwarding is exempt,
// so the bubble can always rotate.
func (f *routedFabric[P]) trySend(now sim.Cycle, out int, head *routedMsg[P], inject bool) bool {
	ls := &f.st.Links[out]
	if f.busyUntil[out] > now {
		return false
	}
	if f.stallUntil[out] > now {
		ls.ChaosStalls++
		return false
	}
	flits := head.m.Flits
	if f.credits[out] < flits {
		ls.CreditStalls++
		return false
	}
	ring := f.topo.links[out].ring
	if inject && ring >= 0 && f.ringFree[ring]-flits < f.bubbleReserve {
		ls.CreditStalls++
		return false
	}
	ser := sim.Cycle((flits + f.cfg.LinkBandwidth - 1) / f.cfg.LinkBandwidth)
	f.busyUntil[out] = now + ser
	f.credits[out] -= flits
	if ring >= 0 {
		// Reserve downstream ring-buffer space. A forward's popPort
		// releases the same amount upstream, so only injection shrinks
		// ringFree net and only ejection grows it — the invariant the
		// bubble check depends on.
		f.ringFree[ring] -= flits
	}
	t := transitMsg[P]{arrive: now + ser + f.cfg.LinkLatency, msg: *head}
	t.msg.hops++
	f.transit[out].PushGrow(t)
	ls.Messages++
	ls.Flits += uint64(flits)
	ls.BusyCycles += uint64(ser)
	return true
}

func (f *routedFabric[P]) Deliver(now sim.Cycle, sink func(m Message[P]) bool) {
	for n, q := range f.eject {
		for head := q.Front(); head != nil; head = q.Front() {
			if !sink(head.m) {
				// Destination backpressure: the head keeps its place,
				// so per-(src,dst) FIFO order survives the refusal.
				f.st.DeliverRetries++
				break
			}
			f.ejectFlits[n] -= head.m.Flits
			f.inflight--
			f.st.Delivered++
			f.st.Hops.Observe(uint64(head.hops))
			f.st.NetLatency.Observe(uint64(now - head.sent))
			q.Pop()
		}
	}
}

func (f *routedFabric[P]) InFlight() int { return f.inflight }
func (f *routedFabric[P]) Links() int    { return len(f.topo.links) }

func (f *routedFabric[P]) StallLink(l int, until sim.Cycle) {
	if l < 0 || l >= len(f.stallUntil) {
		return
	}
	if until > f.stallUntil[l] {
		f.stallUntil[l] = until
	}
}

func (f *routedFabric[P]) Stats() *Stats { return &f.st }

func (f *routedFabric[P]) AttachObs(o *obs.Obs) {
	if !o.Enabled() {
		return
	}
	attachStats(o, &f.st, f.InFlight)
	f.tracer = o.Trace()
	r := o.Reg()
	for i := range f.st.Links {
		ls := &f.st.Links[i]
		prefix := fmt.Sprintf("noc.link%03d.", i)
		r.Func(prefix+"flits", func() float64 { return float64(ls.Flits) })
		r.Func(prefix+"busy_cycles", func() float64 { return float64(ls.BusyCycles) })
		r.Func(prefix+"credit_stalls", func() float64 { return float64(ls.CreditStalls) })
		r.Func(prefix+"chaos_stalls", func() float64 { return float64(ls.ChaosStalls) })
	}
}

// emitTrace renders per-link input-buffer occupancy as one Chrome
// counter event, a stacked per-link congestion track in Perfetto.
func (f *routedFabric[P]) emitTrace(now sim.Cycle) {
	values := make(map[string]any, len(f.topo.links))
	for _, l := range f.topo.links {
		values[fmt.Sprintf("l%03d.%s", l.id, l.class)] = f.ports[l.to][l.port].usedFlits
	}
	f.tracer.CounterEvent("noc.links", uint64(now), values)
}
