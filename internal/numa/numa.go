// Package numa models the paper's full §3 architecture: a scalable
// multi-node system where each node couples a cache-less multicore
// processor with its own 3D-stacked memory device through a MAC unit,
// and remote devices are reached through the owning node's MAC.
//
// The single-node model in internal/cpu covers the paper's evaluated
// configuration; this package exercises the request router's Global
// and Remote access queues (§3.1) and the response router's
// remote-return path (§3.3) with a configurable node count.
//
// Global/Remote traffic rides an internal/noc fabric: the default
// `ideal` topology reproduces the original point-to-point wire
// cycle-for-cycle, while `ring` and `mesh` model real routed
// interconnects with credit-based flow control and FLIT-granular link
// serialization (Config.NoC selects and parameterizes them).
package numa

import (
	"fmt"

	"mac3d/internal/addr"
	"mac3d/internal/audit"
	"mac3d/internal/chaos"
	"mac3d/internal/coalesce"
	"mac3d/internal/core"
	"mac3d/internal/cpu"
	"mac3d/internal/hmc"
	"mac3d/internal/memreq"
	"mac3d/internal/noc"
	"mac3d/internal/obs"
	"mac3d/internal/sim"
	"mac3d/internal/stats"
	"mac3d/internal/trace"
)

// Config parameterizes the multi-node system.
type Config struct {
	// Nodes is the node count (each with cores, MAC and HMC).
	Nodes int
	// CoresPerNode is the core count of each node.
	CoresPerNode int
	// InterleaveBytes is the block size of the global address
	// interleave across nodes (default: one 256B row).
	InterleaveBytes uint64
	// LinkLatency is the one-way inter-node hop latency in cycles.
	//
	// Deprecated: LinkLatency and LinkBandwidth are aliases kept for
	// pre-NoC configurations. When NoC.Topology is empty they
	// parameterize an ideal fabric with the original semantics;
	// otherwise NoC wins and they are ignored.
	LinkLatency sim.Cycle
	// LinkBandwidth bounds messages per cycle per direction on each
	// node's interconnect port.
	//
	// Deprecated: see LinkLatency.
	LinkBandwidth int
	// NoC selects and parameterizes the interconnect fabric. The zero
	// value (empty Topology) falls back to an ideal fabric built from
	// the deprecated LinkLatency/LinkBandwidth fields — bit-identical
	// to the pre-NoC point-to-point model. NoC.Nodes may be left 0 to
	// inherit Nodes; a non-zero value must agree with it.
	NoC noc.Config
	// Chaos injects deterministic adversity into the run. Only the
	// link stressors act at the NUMA level (transient NoC link stalls,
	// requiring a routed NoC topology, and cube link stalls, requiring
	// a routed cube); the node-side stressors act only on a single-node
	// run and are inert here.
	Chaos chaos.Profile
	// Kind selects each node's coalescer frontend (default WithMAC);
	// every node runs the same design.
	Kind cpu.CoalescerKind
	// MAC configures each node's coalescer.
	MAC core.Config
	// Warp and MemCache parameterize the SIMT and die-stacked
	// frontends when Kind selects them; the zero value takes the
	// package defaults.
	Warp     coalesce.WarpConfig
	MemCache coalesce.MemCacheConfig
	// HMC configures each node's device.
	HMC hmc.Config
	// SPMLatency and MaxOutstanding mirror cpu.Config.
	SPMLatency     sim.Cycle
	MaxOutstanding int
	// StallLimit is the simulation watchdog bound: a run making no
	// forward progress for this many cycles aborts with a diagnostic
	// error instead of spinning to MaxCycles. 0 disables it.
	StallLimit sim.Cycle
	// MaxCycles aborts a run that fails to drain.
	MaxCycles sim.Cycle
	// Retry is the requester-side poison-recovery policy: poisoned
	// completions are re-issued by the originating node's router up
	// to the policy's budget. The zero value keeps fail-on-poison.
	Retry memreq.RetryPolicy
}

// DefaultConfig returns a 2-node system with Table 1 nodes and a
// 100ns-class interconnect hop.
func DefaultConfig() Config {
	return Config{
		Nodes:           2,
		CoresPerNode:    8,
		InterleaveBytes: addr.RowBytes,
		LinkLatency:     330, // ~100ns at 3.3 GHz
		LinkBandwidth:   2,
		MAC:             core.DefaultConfig(),
		HMC:             hmc.DefaultConfig(),
		SPMLatency:      4,
		MaxOutstanding:  256,
		StallLimit:      1_000_000,
		MaxCycles:       2_000_000_000,
	}
}

// Validate reports the first configuration error, or nil: the
// interconnect's own checks, then the per-node settings' as
// cpu.RunConfig.Validate makes them.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("numa: Nodes must be positive, got %d", c.Nodes)
	case c.NoC.Topology == "" && c.LinkBandwidth <= 0:
		return fmt.Errorf("numa: LinkBandwidth must be positive, got %d", c.LinkBandwidth)
	case c.NoC.Nodes != 0 && c.NoC.Nodes != c.Nodes:
		return fmt.Errorf("numa: NoC.Nodes=%d disagrees with Nodes=%d (leave it 0 to inherit)",
			c.NoC.Nodes, c.Nodes)
	}
	if err := c.nocConfig().Validate(); err != nil {
		return err
	}
	return c.runConfig().Validate()
}

// runConfig lowers the per-node settings onto the cpu.RunConfig every
// node is built from, so both drivers assemble nodes through cpu.Build.
// Zero-value frontend configs take the package defaults.
func (c Config) runConfig() cpu.RunConfig {
	rc := cpu.DefaultRunConfig()
	rc.Kind, rc.MAC, rc.HMC, rc.Chaos, rc.Retry = c.Kind, c.MAC, c.HMC, c.Chaos, c.Retry
	if c.Warp != (coalesce.WarpConfig{}) {
		rc.Warp = c.Warp
	}
	if c.MemCache != (coalesce.MemCacheConfig{}) {
		rc.MemCache = c.MemCache
	}
	nc := &rc.Node
	nc.Cores, nc.SPMLatency, nc.MaxOutstanding = c.CoresPerNode, c.SPMLatency, c.MaxOutstanding
	nc.StallLimit, nc.MaxCycles = c.StallLimit, c.MaxCycles
	nc.Router.InterleaveBytes = c.InterleaveBytes
	return rc
}

// nocConfig resolves the effective fabric configuration: Config.NoC
// when set, else an ideal fabric carrying the deprecated
// LinkLatency/LinkBandwidth fields (including a legal zero latency).
func (c Config) nocConfig() noc.Config {
	n := c.NoC
	if n.Topology == "" {
		n.Topology = noc.Ideal
		if n.LinkLatency == 0 {
			n.LinkLatency = c.LinkLatency
		}
		if n.LinkBandwidth == 0 {
			n.LinkBandwidth = c.LinkBandwidth
		}
	}
	n.Nodes = c.Nodes
	return n.WithDefaults()
}

// Result aggregates system-wide measurements.
type Result struct {
	Cycles         sim.Cycle
	Instructions   uint64
	MemRequests    uint64
	SPMAccesses    uint64
	RemoteRequests uint64 // requests that crossed the interconnect
	RequestLatency stats.Histogram
	// FailedRequests counts raw requests retired with an error status
	// because their transaction's response was poisoned.
	FailedRequests uint64
	// RetriedRequests counts poisoned completions re-issued under
	// Config.Retry (once per re-issue).
	RetriedRequests uint64
	// RetireUnderflows and Misrouted count malformed deliveries
	// survived instead of panicking.
	RetireUnderflows uint64
	Misrouted        uint64
	// NoC carries the interconnect's statistics: topology, per-link
	// congestion accounts, hop and network-latency histograms.
	NoC *noc.Stats
	// Chaos carries the injected-adversity counters; nil when the
	// chaos profile is disabled.
	Chaos *chaos.Stats
	// Audit is the machine-wide ledger's end-of-run report; nil unless
	// the nodes were built with cpu.RunConfig.Audit.
	Audit *audit.Report
	// PerNode carries each node's coalescer and device snapshots.
	PerNode []NodeStats
}

// NodeStats is one node's measurement snapshot.
type NodeStats struct {
	Coalescer    memreq.Stats
	Device       hmc.Stats
	Responses    core.ResponseRouterStats
	RemoteServed uint64
	RemoteSent   uint64
	// Cube is the device's intra-cube fabric snapshot; nil for the
	// ideal cube topology.
	Cube *noc.Stats
}

// RemoteFraction returns the share of memory requests that targeted a
// remote node's device.
func (r *Result) RemoteFraction() float64 {
	if r.MemRequests == 0 {
		return 0
	}
	return float64(r.RemoteRequests) / float64(r.MemRequests)
}

// System is the multi-node simulator: a cpu.Machine of cpu.Nodes built
// from a Config.
type System struct {
	m *cpu.Machine
}

// NewSystem builds the system through cpu.Build; each node gets its own
// coalescer and device. It returns an error for an invalid
// configuration instead of panicking.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("numa: invalid config: %w", err)
	}
	net := cfg.nocConfig()
	m, err := cpu.Build(cfg.runConfig(), &net)
	if err != nil {
		return nil, fmt.Errorf("numa: %w", err)
	}
	return &System{m: m}, nil
}

// AttachObs wires every node (its probes, coalescer and device) into a
// run's observability layer, each under a "nodeN." name prefix so the
// shared registry and recorder keep per-node series apart, plus
// system-wide interconnect probes. Call once before Run; nil is a
// no-op.
func (s *System) AttachObs(o *obs.Obs) { s.m.AttachObs(o) }

// Load distributes a trace's threads across nodes: thread t is homed
// on node t % Nodes, so every node runs at most CoresPerNode threads.
func (s *System) Load(tr *trace.Trace) error { return s.m.Load(tr) }

// Run replays the loaded trace to completion and sums the nodes'
// results.
func (s *System) Run() (*Result, error) {
	rs, err := s.m.Run()
	if err != nil {
		return nil, err
	}
	r := &Result{Cycles: rs[0].Cycles, NoC: s.m.NoC(), Chaos: rs[0].Chaos, Audit: rs[0].Audit}
	for _, nr := range rs {
		r.Instructions += nr.Instructions
		r.MemRequests += nr.MemRequests
		r.SPMAccesses += nr.SPMAccesses
		r.RemoteRequests += nr.RemoteSent
		r.FailedRequests += nr.FailedRequests
		r.RetriedRequests += nr.RetriedRequests
		r.RetireUnderflows += nr.RetireUnderflows
		r.Misrouted += nr.Misrouted
		r.RequestLatency.Merge(&nr.RequestLatency)
		r.PerNode = append(r.PerNode, NodeStats{
			Coalescer:    nr.Coalescer,
			Device:       nr.Device,
			Responses:    nr.Responses,
			RemoteServed: nr.RemoteServed,
			RemoteSent:   nr.RemoteSent,
			Cube:         nr.Cube,
		})
	}
	return r, nil
}

// Run is a convenience wrapper: build, load, run.
func Run(cfg Config, tr *trace.Trace) (*Result, error) {
	s, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Load(tr); err != nil {
		return nil, err
	}
	return s.Run()
}
