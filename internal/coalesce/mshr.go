package coalesce

import (
	"fmt"
	"math/bits"

	"mac3d/internal/addr"
	"mac3d/internal/hmc"
	"mac3d/internal/memreq"
	"mac3d/internal/obs"
	"mac3d/internal/sim"
)

// MSHRConfig parameterizes the conventional miss-handling coalescer.
type MSHRConfig struct {
	// Entries is the number of miss status holding registers.
	Entries int
	// LineBytes is the fixed transaction size (the cache-line size;
	// 64B in commercial processors, §2.3.2).
	LineBytes uint32
	// MaxMerges bounds raw requests merged per MSHR entry.
	MaxMerges int
	// QueueDepth sizes the input FIFO.
	QueueDepth int
}

// DefaultMSHRConfig returns the §2.3 conventional design: 32 MSHRs of
// 64B lines, mirroring the 32-entry ARQ for a like-for-like area.
func DefaultMSHRConfig() MSHRConfig {
	return MSHRConfig{Entries: 32, LineBytes: 64, MaxMerges: 12, QueueDepth: 64}
}

// Validate reports the first configuration error, or nil.
func (c MSHRConfig) Validate() error {
	switch {
	case c.Entries <= 0:
		return fmt.Errorf("coalesce: MSHR Entries must be positive, got %d", c.Entries)
	case c.LineBytes == 0 || c.LineBytes%addr.FlitBytes != 0:
		return fmt.Errorf("coalesce: MSHR LineBytes must be a FLIT multiple, got %d", c.LineBytes)
	case c.MaxMerges <= 0:
		return fmt.Errorf("coalesce: MSHR MaxMerges must be positive, got %d", c.MaxMerges)
	case c.QueueDepth <= 0:
		return fmt.Errorf("coalesce: MSHR QueueDepth must be positive, got %d", c.QueueDepth)
	}
	return nil
}

// mshrEntry is one outstanding line miss. Targets merged after the
// line transaction dispatched are parked in late and delivered when
// the response returns.
type mshrEntry struct {
	key   uint64 // line-aligned address with the store bit in bit 63
	store bool
	slot  int    // index in the register file (for bitset bookkeeping)
	bytes uint32 // the dispatched transaction's payload, from the line start
	late  []memreq.Target
}

// MSHR models conventional miss-status-holding-register coalescing
// (§2.3): the first request to a line allocates an entry and dispatches
// a fixed-size line transaction immediately; subsequent requests to the
// same line and type merge into the entry while it is outstanding and
// produce no traffic. The entry frees when the line response returns.
// This is the design whose limitations (§2.3.2) motivate MAC: the
// transaction size is pinned to LineBytes no matter how many requests
// merge, and merging stops the moment the original miss completes.
//
// The register file is a fixed slab with an occupancy bitset and a
// CAM-style linear key scan — what the hardware's parallel comparators
// do, and in software a bounded allocation-free probe. The previous
// map representation allocated on every miss and rehashed under churn,
// which dominated the per-cycle profile. Per-slot late lists are
// preallocated arenas, and Built target lists come from the
// frontend's recycling slab pool.
type MSHR struct {
	frontend
	cfg MSHRConfig

	// entries is the fixed register file; used is its occupancy
	// bitset (bit i set -> entries[i] holds an outstanding miss).
	entries []mshrEntry
	used    []uint64
	count   int
}

var _ memreq.Coalescer = (*MSHR)(nil)

// NewMSHR builds the conventional coalescer, panicking on bad config.
func NewMSHR(cfg MSHRConfig) *MSHR {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &MSHR{
		frontend: newFrontend(cfg.QueueDepth, cfg.MaxMerges),
		cfg:      cfg,
		entries:  make([]mshrEntry, cfg.Entries),
		used:     make([]uint64, (cfg.Entries+63)/64),
	}
	for i := range m.entries {
		m.entries[i].slot = i
		if cfg.MaxMerges > 1 {
			m.entries[i].late = make([]memreq.Target, 0, cfg.MaxMerges-1)
		}
	}
	return m
}

func (m *MSHR) lineKey(a uint64, store bool) uint64 {
	k := a & addr.PhysMask &^ uint64(m.cfg.LineBytes-1)
	if store {
		k |= 1 << 63
	}
	return k
}

// lookup scans the occupied registers for key — the associative
// comparator bank, as a bitset-guided linear probe.
func (m *MSHR) lookup(key uint64) *mshrEntry {
	for w, word := range m.used {
		for word != 0 {
			i := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			if m.entries[i].key == key {
				return &m.entries[i]
			}
		}
	}
	return nil
}

// alloc claims the lowest free register for key. Slot choice is
// invisible to timing (entries are only ever found by key), so
// lowest-free keeps the scan short without affecting results.
func (m *MSHR) alloc(key uint64, store bool) *mshrEntry {
	for w, word := range m.used {
		free := ^word
		if w == len(m.used)-1 && m.cfg.Entries%64 != 0 {
			free &= 1<<(m.cfg.Entries%64) - 1
		}
		if free == 0 {
			continue
		}
		i := w*64 + bits.TrailingZeros64(free)
		m.used[w] |= 1 << (i % 64)
		m.count++
		e := &m.entries[i]
		e.key, e.store, e.late = key, store, e.late[:0]
		return e
	}
	return nil
}

// release frees an entry's register.
func (m *MSHR) release(e *mshrEntry) {
	m.used[e.slot/64] &^= 1 << (e.slot % 64)
	m.count--
}

// Tick processes one queued request per cycle: merge into an
// outstanding MSHR (producing no traffic) or allocate an entry and
// dispatch the line transaction immediately. The transaction is one
// line, extended to the request's last FLIT when the request runs past
// the line end; a later request merges only when its FLIT span lies
// inside it.
func (m *MSHR) Tick(sim.Cycle) []memreq.Built {
	head, ok := m.head()
	if !ok {
		return nil
	}
	if head.Atomic {
		m.q.Pop()
		return m.emit(m.single(head, true))
	}

	key := m.lineKey(head.Addr, head.Store)
	line, size := lineSpan(head, m.cfg.LineBytes)
	if e := m.lookup(key); e != nil {
		if 1+len(e.late) < m.cfg.MaxMerges && covers(line, e.bytes, head) {
			// Merge under the outstanding miss: no new traffic.
			m.q.Pop()
			e.late = append(e.late, head.Target())
		}
		// Otherwise the entry is full or head runs past its
		// transaction: structural stall until the line completes.
		return nil
	}

	if m.count >= m.cfg.Entries {
		return nil // all MSHRs busy: stall
	}

	m.q.Pop()
	e := m.alloc(key, head.Store)
	e.bytes = size
	kind := hmc.Read
	if head.Store {
		kind = hmc.Write
	}
	b := memreq.Built{
		Req: hmc.Request{
			Kind: kind,
			Addr: line,
			Data: size,
		},
		Targets: m.Take(head.Target()),
		Handle:  e,
	}
	m.CountEmit(&b)
	return m.emit(b)
}

// Completed frees the MSHR entry of the finished transaction and folds
// any targets merged after dispatch into the transaction's target list
// so the caller's response routing delivers them too.
func (m *MSHR) Completed(b *memreq.Built) {
	m.frontend.Completed(b)
	if e, ok := b.Handle.(*mshrEntry); ok && e != nil {
		if len(e.late) > 0 {
			// A pooled Targets has cap MaxMerges and dispatch + late
			// is at most MaxMerges, so this append stays in place.
			b.Targets = append(b.Targets, e.late...)
		}
		m.release(e)
	}
	m.Stats().TargetsPerTx.Observe(uint64(len(b.Targets)))
}

// Reset restores the initial empty state (the slab pool survives).
func (m *MSHR) Reset() {
	m.frontend.Reset()
	clear(m.used)
	m.count = 0
}

// AttachObs registers the MSHR's occupancy and queue state into a
// run's observability layer.
func (m *MSHR) AttachObs(o *obs.Obs) {
	reg := o.Reg()
	reg.Func("mshr.entries", func() float64 { return float64(m.count) })
	reg.Func("mshr.queue", func() float64 { return float64(m.q.Len()) })
	rec := o.Rec()
	rec.Watch("mshr.entries", func() float64 { return float64(m.count) })
	rec.Watch("mshr.queue", func() float64 { return float64(m.q.Len()) })
}

var _ obs.Attacher = (*MSHR)(nil)
