package core

import (
	"fmt"

	"mac3d/internal/hmc"
	"mac3d/internal/memreq"
	"mac3d/internal/obs"
	"mac3d/internal/sim"
)

// Config parameterizes one MAC unit.
type Config struct {
	// ARQ sizes the raw request aggregator.
	ARQ AggregatorConfig
	// FineBuilder switches the request builder to 16B (FLIT)
	// granularity instead of the paper's 64B chunks — an ablation
	// of the §4.2 control-overhead/data-utilization trade.
	FineBuilder bool
}

// DefaultConfig returns the paper's evaluated configuration
// (Table 1: 32-entry ARQ, 64B entries).
func DefaultConfig() Config {
	return Config{ARQ: DefaultAggregatorConfig()}
}

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error { return c.ARQ.Validate() }

// SpaceBytes returns the hardware area model of the whole MAC unit
// (paper §5.3.3): the ARQ entries plus the builder's FLIT map and
// FLIT table. Comparators and OR gates are reported separately.
func (c Config) SpaceBytes() int { return c.ARQ.SpaceBytes() + BuilderSpaceBytes }

// MAC is the complete Memory Access Coalescer unit. It implements
// memreq.Coalescer; the embedded Tally supplies Stats, Inflight and
// Completed.
type MAC struct {
	memreq.Tally
	cfg Config
	agg *Aggregator
	bld *Builder

	// nextPop is the earliest cycle the ARQ may pop again (one pop
	// per PopInterval cycles).
	nextPop sim.Cycle
	// heldFence is set while a popped fence waits for outstanding
	// transactions to drain.
	heldFence bool
	// out is the buffer Tick returns, reused from cycle to cycle.
	out []memreq.Built

	// obs is the run's observability handle (nil when disabled).
	obs *obs.Obs
}

var (
	_ memreq.Coalescer = (*MAC)(nil)
	_ obs.Attacher     = (*MAC)(nil)
)

// New builds a MAC unit, returning a wrapped configuration error so
// callers assembling systems at run time (the facade, the NUMA
// builder) can surface it instead of crashing.
func New(cfg Config) (*MAC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid MAC config: %w", err)
	}
	agg := NewAggregator(cfg.ARQ)
	bld := NewBuilder(agg.Window())
	if cfg.FineBuilder {
		bld = NewFineBuilder(agg.Window())
	}
	return &MAC{
		Tally: memreq.NewTally(),
		cfg:   cfg,
		agg:   agg,
		bld:   bld,
	}, nil
}

// MustNew is New panicking on error, for tests and static fixtures.
func MustNew(cfg Config) *MAC {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the unit configuration.
func (m *MAC) Config() Config { return m.cfg }

// Aggregator exposes the ARQ for white-box tests and occupancy stats.
func (m *MAC) Aggregator() *Aggregator { return m.agg }

// SampleOccupancy records one ARQ occupancy observation. Tick does
// this itself; drivers that skip Tick on backpressured cycles call it
// directly so OccupancyMean stays a true per-cycle time average.
func (m *MAC) SampleOccupancy() { m.agg.SampleOccupancy() }

// AttachObs wires the unit into a run's observability layer: the ARQ
// counters and occupancy gauge register into the metrics registry, and
// — when a tracer is present — ARQ entries start carrying TxSpans that
// drivers render as per-transaction Chrome trace spans.
func (m *MAC) AttachObs(o *obs.Obs) {
	m.obs = o
	m.agg.attachObs(o)
	reg := o.Reg()
	reg.Func("mac.inflight", func() float64 { return float64(m.Inflight()) })
	reg.Func("mac.pending", func() float64 { return float64(m.Pending()) })
}

// Push offers one raw request at cycle now (≤1 per cycle in the timed
// model; the request router enforces the rate). It reports acceptance.
func (m *MAC) Push(r memreq.RawRequest, now sim.Cycle) bool {
	return m.CountPush(r, m.agg.Push(r, now))
}

// Tick advances the MAC one cycle: the builder pipeline moves, and —
// at most once every PopInterval cycles — the ARQ head pops into the
// builder, bypasses directly to memory, or (for fences) holds until
// the outstanding count drains.
//
// The returned slice is the unit's own buffer, valid until the next
// Tick.
func (m *MAC) Tick(now sim.Cycle) []memreq.Built {
	m.out = m.tick(now, m.out[:0])
	return m.out
}

// tick is Tick appending the cycle's transactions to out.
func (m *MAC) tick(now sim.Cycle, out []memreq.Built) []memreq.Built {
	// Occupancy is sampled here — once per tick — rather than inside
	// Push, so drain phases weigh into the mean (the push-time
	// sampling bias fix).
	m.agg.SampleOccupancy()

	if built, ok := m.bld.Tick(now); ok {
		m.note(&built)
		out = append(out, built)
	}

	// Fence release: a held fence retires once every earlier
	// transaction has completed and the builder is empty.
	if m.heldFence {
		if m.Inflight() == 0 && !m.bld.Busy() && len(out) == 0 {
			m.heldFence = false
		}
		return out
	}

	if now < m.nextPop {
		return out
	}

	if m.agg.PeekFence() {
		// Pop the fence marker and stall pops until drained.
		m.agg.Pop()
		m.heldFence = true
		m.nextPop = now + m.cfg.ARQ.PopInterval
		return out
	}

	// Bypass entries (B bit, atomics) skip the builder; coalesced
	// entries need a free stage-1 slot.
	if m.agg.Len() > 0 {
		head := m.agg.headEntry()
		single := !head.fence && !head.atomic && len(head.targets) == 1
		if head.atomic || single {
			e, _ := m.agg.Pop()
			e.span.MarkPop(uint64(now))
			e.span.MarkBuilt(uint64(now))
			b := memreq.Direct(e.raw, e.targets)
			b.Bypassed, b.Span = true, e.span
			m.note(&b)
			out = append(out, b)
			m.nextPop = now + m.cfg.ARQ.PopInterval
		} else if m.bld.CanAccept(now) {
			e, _ := m.agg.Pop()
			e.span.MarkPop(uint64(now))
			m.bld.Accept(e, now)
			m.nextPop = now + m.cfg.ARQ.PopInterval
		}
	}
	return out
}

// note updates statistics and the outstanding count for an emitted
// transaction.
func (m *MAC) note(b *memreq.Built) {
	for _, t := range b.Targets {
		if err := t.Validate(m.cfg.ARQ.WindowBytes); err != nil {
			panic(err)
		}
	}
	m.CountEmit(b)
	m.Stats().TargetsPerTx.Observe(uint64(len(b.Targets)))
	if b.Span != nil {
		b.Span.Addr = b.Req.Addr
		b.Span.Bytes = b.Req.Data
		b.Span.Targets = len(b.Targets)
		b.Span.Store = b.Req.Kind == hmc.Write
		b.Span.Bypassed = b.Bypassed
	}
}

// Recycle implements memreq.Recycler: a driver that has fully consumed
// a Built (response delivered, every target retired) hands it back so
// the target slab returns to the ARQ's pool. The Built must not be
// referenced again afterwards.
func (m *MAC) Recycle(b *memreq.Built) { m.agg.slabs.Recycle(b) }

// Pending returns raw requests accepted but not yet emitted (ARQ
// occupancy plus builder pipeline contents, counted in entries).
func (m *MAC) Pending() int {
	n := m.agg.Len()
	if m.bld.stage1.valid {
		n++
	}
	if m.bld.stage2.valid {
		n++
	}
	if m.heldFence {
		n++
	}
	return n
}

// Reset restores the unit to its initial state, clearing statistics.
func (m *MAC) Reset() {
	m.agg.Reset()
	if m.cfg.FineBuilder {
		m.bld = NewFineBuilder(m.agg.Window())
	} else {
		m.bld = NewBuilder(m.agg.Window())
	}
	m.nextPop = 0
	m.heldFence = false
	m.Tally = memreq.NewTally()
}
