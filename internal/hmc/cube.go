// Cube-internal interconnect: the vault fabric of the 3D-stacked
// device. The pre-fabric model routed link→vault traffic through a
// fixed ReqPipeline/RespPipeline pair — a contention-free logic-layer
// switch. Hadidi et al. ("Performance Implications of NoCs on
// 3D-Stacked Memories", "Demystifying the Characteristics of
// 3D-Stacked Memories") show that the cube's internal network is what
// shapes the load–latency knee, so this file lets the device route
// that traffic through a real noc.Fabric instead:
//
//   - Topology "ideal" (the default) keeps the exact pre-fabric direct
//     dispatch: no fabric object is even constructed, so default
//     configurations are cycle-for-cycle identical to the old model
//     (pinned by the cube golden tests).
//   - "ring" and "mesh" build a credit-flow-controlled noc fabric of
//     Links+Vaults endpoints; every request crosses it from its
//     ingress-link node to its vault node, and every response crosses
//     back. ReqPipeline/RespPipeline are still charged (SerDes and
//     controller decode); the fabric replaces only the contention-free
//     switch crossing, adding per-hop latency, serialization and
//     backpressure on top.
//
// Two further knobs ride along, usable with any topology:
//
//   - PagePolicy "open" keeps each bank's last row open: a row hit
//     skips the activate, a row miss pays tRCD, and a row conflict
//     pays precharge+activate. "closed" (the default) is the paper's
//     every-access-is-a-miss timing, bit-identical to the old model.
//   - QuadrantPenalty charges extra cycles each way when a request's
//     vault lies outside its ingress link's quadrant (Hadidi's
//     quadrant locality: vaults are split evenly across the Links
//     ingress quadrants). 0 (the default) disables the effect.
package hmc

import (
	"fmt"
	"strconv"
	"strings"

	"mac3d/internal/noc"
	"mac3d/internal/sim"
)

// Page policies.
const (
	// PageClosed is the paper's closed-page timing: every access pays
	// activate + precharge as part of bank occupancy.
	PageClosed = "closed"
	// PageOpen keeps the last-accessed row open in each bank's sense
	// amplifiers: hits skip the activate, conflicts pay an extra
	// precharge.
	PageOpen = "open"
)

// CubeConfig parameterizes the cube-internal fabric, row-buffer policy
// and quadrant locality. The zero value (ideal switch, closed page, no
// quadrant effect) reproduces the pre-fabric model cycle-for-cycle.
type CubeConfig struct {
	// Topology selects the vault interconnect: "ideal" (alias
	// "crossbar"; the pre-fabric contention-free switch), "ring" or
	// "mesh". Routed topologies span Links+Vaults fabric nodes.
	Topology string
	// HopCycles is the per-hop propagation latency of the routed
	// fabric in cycles (key "hop"; default 2, a sub-ns logic-layer
	// hop at 3.3 GHz). Ignored by ideal.
	HopCycles sim.Cycle
	// LinkBandwidth is the intra-cube link serialization width in 16B
	// flits per cycle (key "bw"; default 4). Ignored by ideal.
	LinkBandwidth int
	// BufferFlits sizes each fabric router's input buffer (key "buf";
	// default 64). Ignored by ideal.
	BufferFlits int
	// InjectDepth bounds each fabric node's injection queue in
	// messages (key "inject"; default 8). Ignored by ideal.
	InjectDepth int
	// MeshCols fixes the mesh width (key "cols"); 0 picks the
	// most-square factorization of Links+Vaults. Mesh only.
	MeshCols int
	// PagePolicy selects "closed" (default) or "open" row-buffer
	// handling (key "page").
	PagePolicy string
	// QuadrantPenalty is the extra traversal cost, in cycles each
	// way, of a request whose vault lies outside its ingress link's
	// quadrant (key "quad"; default 0).
	QuadrantPenalty sim.Cycle
}

// DefaultCubeConfig returns the pre-fabric cube: ideal switch, closed
// page, no quadrant effect.
func DefaultCubeConfig() CubeConfig {
	return CubeConfig{Topology: noc.Ideal, PagePolicy: PageClosed}
}

// WithDefaults canonicalizes names and fills the unset routed-fabric
// fields. It is idempotent.
func (c CubeConfig) WithDefaults() CubeConfig {
	switch strings.ToLower(strings.TrimSpace(c.Topology)) {
	case "", noc.Ideal, "crossbar", "xbar":
		c.Topology = noc.Ideal
	case noc.Ring:
		c.Topology = noc.Ring
	case noc.Mesh:
		c.Topology = noc.Mesh
	default:
		// Leave the unknown name for Validate to report.
		c.Topology = strings.ToLower(strings.TrimSpace(c.Topology))
	}
	switch strings.ToLower(strings.TrimSpace(c.PagePolicy)) {
	case "", PageClosed:
		c.PagePolicy = PageClosed
	case PageOpen:
		c.PagePolicy = PageOpen
	default:
		c.PagePolicy = strings.ToLower(strings.TrimSpace(c.PagePolicy))
	}
	if c.Routed() {
		if c.HopCycles == 0 {
			c.HopCycles = 2
		}
		if c.LinkBandwidth == 0 {
			c.LinkBandwidth = 4
		}
		if c.BufferFlits == 0 {
			c.BufferFlits = 64
		}
		if c.InjectDepth == 0 {
			c.InjectDepth = 8
		}
	}
	return c
}

// Routed reports whether the cube traffic crosses a real noc fabric
// (ring or mesh) rather than the ideal direct-dispatch switch.
func (c CubeConfig) Routed() bool {
	switch strings.ToLower(strings.TrimSpace(c.Topology)) {
	case noc.Ring, noc.Mesh:
		return true
	}
	return false
}

// Validate reports the first configuration error, or nil. links and
// vaults are the owning device's organization (the fabric endpoint
// counts); pass the configured values so mesh factorization and node
// bounds are checked against the real device.
func (c CubeConfig) Validate(links, vaults int) error {
	c = c.WithDefaults()
	switch c.Topology {
	case noc.Ideal, noc.Ring, noc.Mesh:
	default:
		return fmt.Errorf("hmc: unknown cube topology %q (want ideal, crossbar, ring or mesh)", c.Topology)
	}
	switch c.PagePolicy {
	case PageClosed, PageOpen:
	default:
		return fmt.Errorf("hmc: unknown cube page policy %q (want closed or open)", c.PagePolicy)
	}
	if c.QuadrantPenalty > 1<<20 {
		return fmt.Errorf("hmc: cube quadrant penalty %d exceeds the 2^20 bound", c.QuadrantPenalty)
	}
	if !c.Routed() {
		return nil
	}
	ncfg, err := c.nocConfig(links, vaults)
	if err != nil {
		return err
	}
	if err := ncfg.Validate(); err != nil {
		return fmt.Errorf("hmc: cube fabric: %w", err)
	}
	return nil
}

// nocConfig lowers the cube config onto the interconnect package for a
// device with the given link and vault counts.
func (c CubeConfig) nocConfig(links, vaults int) (noc.Config, error) {
	c = c.WithDefaults()
	nodes := links + vaults
	if nodes > 1024 {
		return noc.Config{}, fmt.Errorf("hmc: cube fabric spans %d nodes (links %d + vaults %d), exceeding the 1024 bound",
			nodes, links, vaults)
	}
	return noc.Config{
		Topology:      c.Topology,
		Nodes:         nodes,
		LinkLatency:   c.HopCycles,
		LinkBandwidth: c.LinkBandwidth,
		BufferFlits:   c.BufferFlits,
		InjectDepth:   c.InjectDepth,
		MeshCols:      c.MeshCols,
	}, nil
}

// String renders the config in the canonical ParseCubeConfig syntax:
// ParseCubeConfig(c.String()) reproduces c (after WithDefaults).
func (c CubeConfig) String() string {
	c = c.WithDefaults()
	parts := []string{c.Topology}
	if c.Routed() {
		parts = append(parts,
			fmt.Sprintf("hop=%d", c.HopCycles),
			fmt.Sprintf("bw=%d", c.LinkBandwidth),
			fmt.Sprintf("buf=%d", c.BufferFlits),
			fmt.Sprintf("inject=%d", c.InjectDepth))
		if c.Topology == noc.Mesh && c.MeshCols != 0 {
			parts = append(parts, fmt.Sprintf("cols=%d", c.MeshCols))
		}
	}
	parts = append(parts, fmt.Sprintf("page=%s", c.PagePolicy))
	if c.QuadrantPenalty != 0 {
		parts = append(parts, fmt.Sprintf("quad=%d", c.QuadrantPenalty))
	}
	return strings.Join(parts, ",")
}

// ParseCubeConfig parses the CLI/flag/spec syntax for the cube block:
//
//	TOPOLOGY[,key=value...]
//
// with keys hop (per-hop cycles), bw (flits/cycle), buf (input-buffer
// flits), inject (injection-queue messages), cols (mesh width), page
// (closed|open) and quad (quadrant-crossing cycles). The empty string
// parses as the default cube (ideal switch, closed page). Keys the
// topology ignores are rejected rather than silently dropped. It never
// panics, whatever the input (FuzzParseCubeConfig holds it to that),
// and anything it accepts passes Validate for the Table 1 device.
func ParseCubeConfig(s string) (CubeConfig, error) {
	var c CubeConfig
	fields := strings.Split(s, ",")
	c.Topology = strings.ToLower(strings.TrimSpace(fields[0]))
	switch c.Topology {
	case "", noc.Ideal, "crossbar", "xbar", noc.Ring, noc.Mesh:
	default:
		return CubeConfig{}, fmt.Errorf("hmc: unknown cube topology %q (want ideal, crossbar, ring or mesh)", c.Topology)
	}
	for _, part := range fields[1:] {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return CubeConfig{}, fmt.Errorf("hmc: cube %q is not key=value", part)
		}
		k = strings.TrimSpace(k)
		v = strings.TrimSpace(v)
		if k == "page" {
			switch strings.ToLower(v) {
			case PageClosed, PageOpen:
				c.PagePolicy = strings.ToLower(v)
			default:
				return CubeConfig{}, fmt.Errorf("hmc: unknown cube page policy %q (want closed or open)", v)
			}
			continue
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return CubeConfig{}, fmt.Errorf("hmc: bad cube %s value %q: %w", k, v, err)
		}
		if n < 0 {
			return CubeConfig{}, fmt.Errorf("hmc: cube %s value %d is negative", k, n)
		}
		switch k {
		case "hop":
			if n > 1<<20 {
				return CubeConfig{}, fmt.Errorf("hmc: cube hop %d exceeds the 2^20 bound", n)
			}
			c.HopCycles = sim.Cycle(n)
		case "bw":
			if n > 64 {
				return CubeConfig{}, fmt.Errorf("hmc: cube bw %d exceeds the 64 flits/cycle bound", n)
			}
			c.LinkBandwidth = int(n)
		case "buf":
			if n > 1<<20 {
				return CubeConfig{}, fmt.Errorf("hmc: cube buf %d exceeds the 2^20 bound", n)
			}
			c.BufferFlits = int(n)
		case "inject":
			if n > 1<<20 {
				return CubeConfig{}, fmt.Errorf("hmc: cube inject %d exceeds the 2^20 bound", n)
			}
			c.InjectDepth = int(n)
		case "cols":
			if n > 1024 {
				return CubeConfig{}, fmt.Errorf("hmc: cube cols %d exceeds the 1024 bound", n)
			}
			c.MeshCols = int(n)
		case "quad":
			if n > 1<<20 {
				return CubeConfig{}, fmt.Errorf("hmc: cube quad %d exceeds the 2^20 bound", n)
			}
			c.QuadrantPenalty = sim.Cycle(n)
		default:
			return CubeConfig{}, fmt.Errorf("hmc: unknown cube key %q (want hop, bw, buf, inject, cols, page or quad)", k)
		}
	}
	c = c.WithDefaults()
	if !c.Routed() {
		if c.HopCycles != 0 || c.LinkBandwidth != 0 || c.BufferFlits != 0 ||
			c.InjectDepth != 0 || c.MeshCols != 0 {
			return CubeConfig{}, fmt.Errorf("hmc: cube keys hop, bw, buf, inject and cols do not apply to the ideal topology")
		}
	}
	if c.Topology == noc.Ring && c.MeshCols != 0 {
		return CubeConfig{}, fmt.Errorf("hmc: cube cols only applies to the mesh topology")
	}
	// Validate against the Table 1 organization; device-specific
	// constraints (mesh factorization against other link/vault counts)
	// are re-checked by Config.Validate at construction.
	def := DefaultConfig()
	if err := c.Validate(def.Links, def.Vaults); err != nil {
		return CubeConfig{}, err
	}
	return c, nil
}

// --- cube fabric runtime ------------------------------------------------

// cubeMsg is the payload of one intra-cube fabric message: the access
// it carries plus the bookkeeping the far endpoint needs. The fabric
// never inspects it.
type cubeMsg struct {
	// isResp distinguishes a vault→link response crossing from a
	// link→vault request crossing.
	isResp bool
	req    Request
	// submitted is the Submit cycle, for end-to-end latency.
	submitted sim.Cycle
	link      int
	vault     int
	// drop marks an access whose response is deliberately lost
	// (DropResponseEvery diagnostic hook).
	drop bool
	// conflicted records the bank-conflict outcome (responses only).
	conflicted bool
}

// cubeInject is one message waiting to enter the fabric once its ready
// cycle arrives (external-link serialization done, or DRAM data ready).
type cubeInject struct {
	ready sim.Cycle
	m     noc.Message[cubeMsg]
}

// cubeState is the Device's fabric runtime; nil for the ideal cube.
type cubeState struct {
	fab noc.Fabric[cubeMsg]
	// q holds per-fabric-node pending injections: requests queue at
	// their ingress-link node, responses at their vault node.
	q [][]cubeInject
	// queued counts entries across q.
	queued int
	// next is the first cycle advance has not yet simulated; at is the
	// cycle it is simulating, read by sink.
	next, at sim.Cycle
	// sink is the fabric's delivery callback, bound once so the
	// per-cycle Deliver call allocates no closure.
	sink func(noc.Message[cubeMsg]) bool
	// inFlight counts accesses between Submit and their response-heap
	// push (or drop): queued, crossing, or at a vault.
	inFlight int
}

// newCubeState builds the fabric runtime for a routed cube config, with
// sink as its delivery callback; it must only be called after
// Config.Validate accepted cfg.
func newCubeState(cfg Config, sink func(noc.Message[cubeMsg]) bool) (*cubeState, error) {
	ncfg, err := cfg.Cube.nocConfig(cfg.Links, cfg.Vaults)
	if err != nil {
		return nil, err
	}
	fab, err := noc.New[cubeMsg](ncfg)
	if err != nil {
		return nil, fmt.Errorf("hmc: cube fabric: %w", err)
	}
	return &cubeState{
		fab:  fab,
		q:    make([][]cubeInject, cfg.Links+cfg.Vaults),
		sink: sink,
	}, nil
}

// cubeFlits clamps a packet's flit count to the fabric's message bound:
// the noc moves at most MaxMessageFlits per message, so larger packets
// serialize as a maximum-size fabric message (their full size is still
// charged on the external host link).
func cubeFlits(flits uint32) int {
	if flits > noc.MaxMessageFlits {
		return noc.MaxMessageFlits
	}
	return int(flits)
}

// quadPenalty returns the quadrant-crossing cost of reaching vault v
// from ingress link l: vaults are split evenly across the Links
// quadrants, and a vault outside its link's quadrant pays the
// configured penalty each way.
func (d *Device) quadPenalty(link, vault int) sim.Cycle {
	if d.cfg.Cube.QuadrantPenalty == 0 {
		return 0
	}
	if vault*d.cfg.Links/d.cfg.Vaults == link {
		return 0
	}
	return d.cfg.Cube.QuadrantPenalty
}

// cubeSubmit hands a request to the fabric runtime: it is queued at its
// ingress-link node and injected once the external link finishes
// serializing it (plus any quadrant-crossing cost). The vault queue
// slot is claimed now, exactly as the direct path does, so CanAccept
// backpressure is policy-identical across topologies.
func (d *Device) cubeSubmit(req Request, link, vault int, ready, now sim.Cycle, drop bool) {
	d.vaultPending[vault]++
	d.cube.inFlight++
	d.cubeEnqueue(link, ready+d.quadPenalty(link, vault), noc.Message[cubeMsg]{
		Src:   link,
		Dst:   d.cfg.Links + vault,
		Flits: cubeFlits(req.RequestFlits()),
		Payload: cubeMsg{
			req: req, submitted: now, link: link, vault: vault, drop: drop,
		},
	})
}

// cubeEnqueue parks m at fabric node n until ready.
func (d *Device) cubeEnqueue(n int, ready sim.Cycle, m noc.Message[cubeMsg]) {
	d.cube.q[n] = append(d.cube.q[n], cubeInject{ready: ready, m: m})
	d.cube.queued++
}

// cubeAdvance runs the fabric cycle loop up to and including now:
// injections whose ready cycle arrived enter the fabric, routers move
// flits, and deliveries land at vaults (starting the DRAM access) or
// back at links (finishing the response). Tick drives it; the loop is
// per-cycle so sparse Tick calls still simulate every cycle.
func (d *Device) cubeAdvance(now sim.Cycle) {
	c := d.cube
	for t := c.next; t <= now; t++ {
		if c.queued > 0 {
			d.cubePump(t)
		}
		if c.queued == 0 && c.fab.InFlight() == 0 {
			// Nothing to move: skip ahead without ticking empty
			// routers cycle by cycle.
			continue
		}
		c.fab.Tick(t)
		c.at = t
		c.fab.Deliver(t, c.sink)
	}
	c.next = now + 1
}

// cubeSink is the fabric's delivery callback: every arrival lands at
// the cycle cubeAdvance is simulating.
func (d *Device) cubeSink(m noc.Message[cubeMsg]) bool {
	d.cubeDeliver(d.cube.at, m)
	return true
}

// cubePump attempts every due injection. Refusals (full injection
// queue) block the refusing node's later due messages, preserving
// per-node order under backpressure; not-yet-due messages never block
// a due one behind them.
func (d *Device) cubePump(t sim.Cycle) {
	c := d.cube
	for n := range c.q {
		q := c.q[n]
		if len(q) == 0 {
			continue
		}
		kept := 0
		blocked := false
		for i := range q {
			e := &q[i]
			if !blocked && e.ready <= t {
				if c.fab.Send(t, e.m) {
					c.queued--
					continue
				}
				blocked = true
			}
			if kept != i {
				q[kept] = *e
			}
			kept++
		}
		c.q[n] = q[:kept]
	}
}

// cubeDeliver handles one fabric arrival at cycle t.
func (d *Device) cubeDeliver(t sim.Cycle, m noc.Message[cubeMsg]) {
	p := m.Payload
	if !p.isResp {
		// Request reached its vault: controller decode, FCFS issue
		// (past any refresh window), then the DRAM access. The
		// response crosses back once the data is ready.
		arrive := t + d.cfg.ReqPipeline
		issue := max(arrive, d.vaultFree[p.vault])
		issue = d.afterRefresh(p.vault, issue)
		d.vaultFree[p.vault] = issue + 1
		dataReady, conflicted := d.bankAccess(p.req, issue)
		p.isResp = true
		p.conflicted = conflicted
		d.cubeEnqueue(d.cfg.Links+p.vault, dataReady+d.quadPenalty(p.link, p.vault), noc.Message[cubeMsg]{
			Src:     d.cfg.Links + p.vault,
			Dst:     p.link,
			Flits:   cubeFlits(p.req.ResponseFlits()),
			Payload: p,
		})
		return
	}
	// Response back at its ingress link: external serialization and the
	// return pipeline, mirroring the direct path from dataReady on.
	respSer := sim.Cycle(p.req.ResponseFlits()) * d.cfg.FlitCycles
	respStart := max(t, d.respLinkFree[p.link])
	poisoned := false
	if d.faultsOn {
		var delivered bool
		respStart, delivered = d.transmit(respStart, respSer)
		poisoned = !delivered
	}
	d.respLinkFree[p.link] = respStart + respSer
	done := respStart + respSer + d.cfg.RespPipeline

	d.st.Latency.Observe(uint64(done - p.submitted))
	if done > d.st.LastDone {
		d.st.LastDone = done
	}
	d.cube.inFlight--
	if p.drop {
		// Lost response: the access happened, but the host never hears
		// back. The vault-queue slot leaks, exactly as on the direct
		// path.
		d.st.DroppedResponses++
		return
	}
	if poisoned {
		d.st.PoisonedResponses++
	}
	d.pushResponse(Response{
		Tag:        p.req.Tag,
		Addr:       p.req.Addr,
		Kind:       p.req.Kind,
		Data:       p.req.Data,
		Submitted:  p.submitted,
		Done:       done,
		Conflicted: p.conflicted,
		Poisoned:   poisoned,
		vault:      p.vault,
		link:       p.link,
	})
}

// CubeLinks returns the routed cube fabric's directed link count, or 0
// for the ideal cube — the chaos engine's SetCubeLinks input.
func (d *Device) CubeLinks() int {
	if d.cube == nil {
		return 0
	}
	return d.cube.fab.Links()
}

// StallCubeLink freezes one directed intra-cube fabric link until the
// given cycle (the chaos engine's cubelink stressor). The ideal cube
// has no links; the call is then a no-op, as it is for out-of-range
// link ids.
func (d *Device) StallCubeLink(link int, until sim.Cycle) {
	if d.cube == nil {
		return
	}
	d.cube.fab.StallLink(link, until)
}

// CubeStats returns the routed cube fabric's live interconnect
// statistics, or nil for the ideal cube.
func (d *Device) CubeStats() *noc.Stats {
	if d.cube == nil {
		return nil
	}
	return d.cube.fab.Stats()
}
