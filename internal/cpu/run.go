package cpu

import (
	"fmt"

	"mac3d/internal/audit"
	"mac3d/internal/chaos"
	"mac3d/internal/coalesce"
	"mac3d/internal/core"
	"mac3d/internal/hmc"
	"mac3d/internal/memreq"
	"mac3d/internal/noc"
	"mac3d/internal/obs"
	"mac3d/internal/trace"
)

// CoalescerKind names the memory-path designs a run can use.
type CoalescerKind int

const (
	// WithMAC uses the paper's Memory Access Coalescer.
	WithMAC CoalescerKind = iota
	// WithoutMAC uses the raw FLIT-granularity path (the paper's
	// baseline for every with/without comparison).
	WithoutMAC
	// WithMSHR uses the conventional 64B miss-merging design of
	// §2.3, for the limitation study.
	WithMSHR
	// WithWarp uses the SIMT warp-lane coalescer (leader-mask
	// SameAddress/SameBlock grouping with warp suspend/resume).
	WithWarp
	// WithMemCache uses the die-stacked memory+cache frontend (part of
	// the stacked DRAM is an inclusive cache, part direct memory).
	WithMemCache
)

// Kinds returns every selectable coalescer kind, in display order.
// This is the single authority on which frontends exist: the facade
// Design enum, the CLI and the arena experiment all derive from it.
func Kinds() []CoalescerKind {
	return []CoalescerKind{WithMAC, WithoutMAC, WithMSHR, WithWarp, WithMemCache}
}

// String names the kind.
func (k CoalescerKind) String() string {
	switch k {
	case WithMAC:
		return "mac"
	case WithoutMAC:
		return "raw"
	case WithMSHR:
		return "mshr"
	case WithWarp:
		return "warp"
	case WithMemCache:
		return "memcache"
	default:
		return fmt.Sprintf("CoalescerKind(%d)", int(k))
	}
}

// ParseKind resolves a kind name (the String form).
func ParseKind(s string) (CoalescerKind, error) {
	for _, k := range Kinds() {
		if k.String() == s {
			return k, nil
		}
	}
	names := make([]string, 0, len(Kinds()))
	for _, k := range Kinds() {
		names = append(names, k.String())
	}
	return 0, fmt.Errorf("cpu: unknown coalescer kind %q (have %v)", s, names)
}

// RunConfig bundles everything one timed run needs.
type RunConfig struct {
	Node     Config
	MAC      core.Config
	MSHR     coalesce.MSHRConfig
	Null     coalesce.NullConfig
	Warp     coalesce.WarpConfig
	MemCache coalesce.MemCacheConfig
	HMC      hmc.Config
	Kind     CoalescerKind
	// Obs, when non-nil, wires the run into an observability layer
	// (metrics registry, timeseries recorder, transaction tracer).
	// Nil keeps every probe a no-op.
	Obs *obs.Obs
	// Audit enables the request-lifecycle conservation ledger; the
	// end-of-run report lands in Result.Audit.
	Audit bool
	// Chaos configures the deterministic chaos engine; the zero
	// profile disables it.
	Chaos chaos.Profile
	// Retry is the requester-side poison-recovery policy; the zero
	// value keeps fail-on-poison behaviour.
	Retry memreq.RetryPolicy
}

// DefaultRunConfig returns the paper's Table 1 setup with MAC enabled.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Node:     DefaultConfig(),
		MAC:      core.DefaultConfig(),
		MSHR:     coalesce.DefaultMSHRConfig(),
		Null:     coalesce.DefaultNullConfig(),
		Warp:     coalesce.DefaultWarpConfig(),
		MemCache: coalesce.DefaultMemCacheConfig(),
		HMC:      hmc.DefaultConfig(),
		Kind:     WithMAC,
	}
}

// NewCoalescer constructs the coalescer selected by cfg.Kind,
// returning a wrapped configuration error.
func (cfg RunConfig) NewCoalescer() (memreq.Coalescer, error) {
	switch cfg.Kind {
	case WithoutMAC:
		return coalesce.NewNull(cfg.Null), nil
	case WithMSHR:
		return coalesce.NewMSHR(cfg.MSHR), nil
	case WithWarp:
		return coalesce.NewWarp(cfg.Warp)
	case WithMemCache:
		return coalesce.NewMemCache(cfg.MemCache)
	default:
		return core.New(cfg.MAC)
	}
}

// Validate reports the first configuration error in any part of cfg,
// or nil.
func (cfg RunConfig) Validate() error {
	for _, err := range []error{
		cfg.Node.Validate(), cfg.MAC.Validate(), cfg.Warp.Validate(), cfg.MemCache.Validate(),
		cfg.HMC.Validate(), cfg.Chaos.Validate(), cfg.Retry.Validate(),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}

// Build assembles the paper's §3 system from cfg: identical nodes, each
// with its own device and coalescer, joined by a fabric built from net
// with node i routing as NodeID i of net.Nodes. A nil net builds the
// lone node with no fabric, the paper's evaluated configuration. Every
// node takes cfg's retry policy and, when cfg.Audit is set, records
// into one machine-wide ledger. The chaos engine's node-side stressors
// act on a lone node only; a fabric's nodes see only the link
// stressors. cfg.Obs, when set, is attached as Machine.AttachObs does.
func Build(cfg RunConfig, net *noc.Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nodes, vaults := 1, cfg.HMC.Vaults
	if net != nil {
		if err := net.WithDefaults().Validate(); err != nil {
			return nil, fmt.Errorf("cpu: %w", err)
		}
		nodes, vaults = net.Nodes, 0
	}
	eng, err := chaos.NewEngine(cfg.Chaos, vaults)
	if err != nil {
		return nil, err
	}
	var ledger *audit.Ledger
	if cfg.Audit {
		ledger = audit.NewLedger()
	}
	ns := make([]*Node, nodes)
	for i := range ns {
		dev, err := hmc.NewDevice(cfg.HMC)
		if err != nil {
			return nil, err
		}
		coal, err := cfg.NewCoalescer()
		if err != nil {
			return nil, err
		}
		nc := cfg.Node
		nc.Router.NodeID, nc.Router.Nodes = i, nodes
		if ns[i], err = NewNode(nc, coal, dev); err != nil {
			return nil, err
		}
		ns[i].SetRetry(cfg.Retry)
		ns[i].setAudit(ledger)
	}
	if net == nil {
		ns[0].SetChaos(eng)
	}
	m, err := newMachine(ns, net, eng)
	if err != nil {
		return nil, err
	}
	m.AttachObs(cfg.Obs)
	return m, nil
}

// Run replays tr through a freshly built lone node.
func Run(cfg RunConfig, tr *trace.Trace) (*Result, error) {
	m, err := Build(cfg, nil)
	if err != nil {
		return nil, err
	}
	if err := m.Load(tr); err != nil {
		return nil, err
	}
	rs, err := m.Run()
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// Comparison holds a with/without-MAC pair over the same trace — the
// measurement behind Figures 10, 12, 13, 14, 15 and 17.
type Comparison struct {
	With    *Result
	Without *Result
}

// Compare runs tr twice, with the MAC and with the raw path.
func Compare(cfg RunConfig, tr *trace.Trace) (*Comparison, error) {
	withCfg := cfg
	withCfg.Kind = WithMAC
	w, err := Run(withCfg, tr)
	if err != nil {
		return nil, fmt.Errorf("with MAC: %w", err)
	}
	withoutCfg := cfg
	withoutCfg.Kind = WithoutMAC
	wo, err := Run(withoutCfg, tr)
	if err != nil {
		return nil, fmt.Errorf("without MAC: %w", err)
	}
	return &Comparison{With: w, Without: wo}, nil
}

// CoalescingEfficiency is the Fig. 10 metric over this comparison:
// the fraction of raw requests MAC eliminated.
func (c *Comparison) CoalescingEfficiency() float64 {
	raw := c.Without.Device.Requests
	if raw == 0 {
		return 0
	}
	return 1 - float64(c.With.Device.Requests)/float64(raw)
}

// BankConflictReduction returns the Fig. 12 metric: conflicts removed.
func (c *Comparison) BankConflictReduction() int64 {
	return int64(c.Without.Device.BankConflicts) - int64(c.With.Device.BankConflicts)
}

// MemorySpeedup returns the Fig. 17 metric: the relative reduction of
// the mean memory access latency (issue to retire) achieved by MAC.
func (c *Comparison) MemorySpeedup() float64 {
	wo := c.Without.RequestLatency.Mean()
	w := c.With.RequestLatency.Mean()
	if wo == 0 {
		return 0
	}
	return 1 - w/wo
}

// MakespanSpeedup returns the end-to-end runtime ratio without/with.
func (c *Comparison) MakespanSpeedup() float64 {
	if c.With.Cycles == 0 {
		return 0
	}
	return float64(c.Without.Cycles) / float64(c.With.Cycles)
}

// BandwidthSaving returns the Fig. 14 metric: control-overhead bytes
// avoided by coalescing.
func (c *Comparison) BandwidthSaving() int64 {
	return int64(c.Without.Device.ControlBytes) - int64(c.With.Device.ControlBytes)
}
