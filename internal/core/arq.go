package core

import (
	"fmt"

	"mac3d/internal/memreq"
	"mac3d/internal/obs"
	"mac3d/internal/sim"
)

// arqEntry is one slot of the Aggregated Request Queue. In hardware an
// entry is 64B: the 52-bit address extended with the T and B bits, the
// 16-bit FLIT map, and 54B of buffered targets (paper §5.3.3).
type arqEntry struct {
	tag     uint64 // window tag: row/window number with the T bit appended
	fmap    WideMap
	targets []memreq.Target
	bypass  bool // B bit: single request, skip the builder
	fence   bool // entry is a memory fence marker
	atomic  bool // atomic op: routed directly, never coalesced
	// For bypass/atomic entries, the original raw request so the
	// emitted transaction keeps its exact address and size.
	raw memreq.RawRequest
	// closed entries no longer accept merges (target overflow or
	// fence freeze at allocation time).
	closed bool
	// inOpen marks the one live entry per tag currently accepting
	// merges — the comparator lane. The invariant is at most one set
	// flag per tag across the occupied ring.
	inOpen bool
	// span carries the entry's observability lifecycle stamps; nil
	// unless tracing is enabled.
	span *obs.TxSpan
}

// AggregatorConfig sizes the Raw Request Aggregator.
type AggregatorConfig struct {
	// Entries is the ARQ depth (Table 1: 32).
	Entries int
	// WindowBytes is the coalescing window: 256 (the paper's HMC
	// row), 512 or 1024 (one HBM row) — the §4.3 "enlarged FLIT
	// map and FLIT table" generalization. 0 means 256.
	WindowBytes uint32
	// MaxTargets bounds merged raw requests per entry. The 64B
	// hardware entry stores 54B/4.5B = 12 targets (paper §5.3.3).
	MaxTargets int
	// PopInterval is the cycles between entry pops (paper §4.1:
	// one pop every two clock cycles).
	PopInterval sim.Cycle
	// FillMode enables the latency-hiding mechanism: when more than
	// half the ARQ is free, the next N raw requests bypass the
	// comparators into free entries (paper §4.1).
	FillMode bool
}

// DefaultAggregatorConfig returns the Table 1 ARQ configuration.
func DefaultAggregatorConfig() AggregatorConfig {
	return AggregatorConfig{Entries: 32, WindowBytes: 256, MaxTargets: 12, PopInterval: 2, FillMode: true}
}

// Validate reports the first configuration error, or nil.
func (c AggregatorConfig) Validate() error {
	switch {
	case c.Entries <= 0:
		return fmt.Errorf("core: ARQ Entries must be positive, got %d", c.Entries)
	case c.MaxTargets <= 0:
		return fmt.Errorf("core: ARQ MaxTargets must be positive, got %d", c.MaxTargets)
	case c.PopInterval == 0:
		return fmt.Errorf("core: ARQ PopInterval must be positive")
	}
	if c.WindowBytes != 0 {
		if _, err := NewWindow(c.WindowBytes); err != nil {
			return err
		}
	}
	return nil
}

// Aggregator is the Raw Request Aggregator (paper §4.1): a FIFO of ARQ
// entries with an associative row-tag comparator per entry.
//
// The storage mirrors the hardware: a fixed ring of Entries slots
// (the old slice-FIFO re-allocated on every wraparound) and a linear
// comparator scan over per-entry inOpen flags (the old tag→index map
// allocated on every insert and had to be re-indexed on every pop).
// Each slot owns a MaxTargets-capacity target buffer; Pop copies the
// head's targets into a pooled slab so the slot can be reused while
// the emitted transaction is still in flight. The driver hands each
// slab back through MAC.Recycle, which makes the whole push/merge/pop
// path allocation-free in steady state.
type Aggregator struct {
	cfg AggregatorConfig
	win Window

	// ring is the fixed entry storage; logical position i lives at
	// ring[(head+i)%Entries] and count slots are occupied.
	ring  []arqEntry
	head  int
	count int

	// slabs pools the target slices Pop hands out.
	slabs memreq.TargetPool

	// fences counts fence entries currently queued; comparators are
	// disabled while any fence is present (paper §4.1).
	fences int
	// fillBudget is the number of upcoming requests that skip the
	// comparators under the latency-hiding mechanism.
	fillBudget int

	// occupancySum/samples measure average ARQ occupancy, sampled
	// once per cycle via SampleOccupancy; lastSample is the most
	// recent observation (what the timeseries watch reports).
	occupancySum     uint64
	occupancySamples uint64
	lastSample       int

	// Observability (all nil/false when disabled).
	tracing bool
	cMerges *obs.Counter
	cAllocs *obs.Counter
	cSplits *obs.Counter
}

// NewAggregator builds an aggregator, panicking on invalid config.
func NewAggregator(cfg AggregatorConfig) *Aggregator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.WindowBytes == 0 {
		cfg.WindowBytes = 256
	}
	win, err := NewWindow(cfg.WindowBytes)
	if err != nil {
		panic(err)
	}
	a := &Aggregator{
		cfg:   cfg,
		win:   win,
		ring:  make([]arqEntry, cfg.Entries),
		slabs: memreq.NewTargetPool(cfg.MaxTargets),
	}
	for i := range a.ring {
		a.ring[i].targets = make([]memreq.Target, 0, cfg.MaxTargets)
	}
	return a
}

// Window returns the aggregator's coalescing-window geometry.
func (a *Aggregator) Window() Window { return a.win }

// Len returns the number of occupied ARQ entries.
func (a *Aggregator) Len() int { return a.count }

// Free returns the number of free ARQ entries.
func (a *Aggregator) Free() int { return a.cfg.Entries - a.count }

// Full reports whether no new entry can be allocated.
func (a *Aggregator) Full() bool { return a.count == a.cfg.Entries }

// at returns the entry at logical FIFO position i (0 = head).
func (a *Aggregator) at(i int) *arqEntry {
	return &a.ring[(a.head+i)%len(a.ring)]
}

// headEntry returns the head entry without removing it; the caller
// must have checked Len() > 0.
func (a *Aggregator) headEntry() *arqEntry { return &a.ring[a.head] }

// alloc claims the tail slot, reusing its target storage, and returns
// it zeroed.
func (a *Aggregator) alloc() *arqEntry {
	e := &a.ring[(a.head+a.count)%len(a.ring)]
	a.count++
	*e = arqEntry{targets: e.targets[:0]}
	return e
}

// lookupOpen scans the occupied entries for tag's comparator lane —
// the hardware's parallel comparators, a bounded allocation-free scan.
func (a *Aggregator) lookupOpen(tag uint64) *arqEntry {
	for i := 0; i < a.count; i++ {
		if e := a.at(i); e.inOpen && e.tag == tag {
			return e
		}
	}
	return nil
}

// closeOpen clears tag's comparator lane, if any entry holds it.
func (a *Aggregator) closeOpen(tag uint64) {
	if e := a.lookupOpen(tag); e != nil {
		e.inOpen = false
	}
}

// clearOpen disables every comparator lane (fence freeze).
func (a *Aggregator) clearOpen() {
	for i := 0; i < a.count; i++ {
		a.at(i).inOpen = false
	}
}

// popHead removes and returns the head entry, copying its targets out
// of the slot.
func (a *Aggregator) popHead() arqEntry {
	slot := &a.ring[a.head]
	head := *slot
	if len(slot.targets) > 0 {
		head.targets = a.slabs.Take(slot.targets...)
	} else {
		head.targets = nil
	}
	a.head = (a.head + 1) % len(a.ring)
	a.count--
	if head.fence {
		a.fences--
		if a.fences == 0 {
			// Comparators re-enable: every surviving entry is
			// visible to merging again (the freeze is a global
			// comparator disable, not a per-entry state).
			a.rebuildOpen()
		}
	}
	return head
}

// rebuildOpen reconstructs the comparator lanes from the surviving
// entries. For duplicated tags the newest entry wins, as it is the one
// a comparator hit would merge into.
func (a *Aggregator) rebuildOpen() {
	a.clearOpen()
	for i := 0; i < a.count; i++ {
		e := a.at(i)
		if e.fence || e.atomic || e.closed {
			continue
		}
		a.closeOpen(e.tag)
		e.inOpen = true
	}
}

// Push offers one raw request. It reports whether the request was
// accepted; a false return models ARQ backpressure and the caller must
// retry the same request later.
//
// Merging rules (paper §4.1–4.1.2):
//   - fences allocate a fence entry and freeze the comparators;
//   - atomics allocate a direct-route entry and are never merged;
//   - an access crossing its coalescing-window boundary is split at
//     the boundary: the two halves land in their respective windows
//     (the tail as a Cont target), so no FLIT is silently dropped;
//   - while any fence is queued, or while the latency-hiding fill
//     budget is active, requests go to fresh entries without compare;
//   - otherwise the row tag (row number + T bit) is compared against
//     all open entries; a hit merges, a miss allocates.
func (a *Aggregator) Push(r memreq.RawRequest, now sim.Cycle) bool {
	switch {
	case r.Fence:
		if a.Full() {
			return false
		}
		e := a.alloc()
		e.fence, e.closed = true, true
		a.fences++
		// A fence invalidates every open comparator: nothing
		// behind it may merge with anything ahead of it.
		a.clearOpen()
		return true

	case r.Atomic:
		if a.Full() {
			return false
		}
		e := a.alloc()
		e.atomic, e.closed = true, true
		e.raw = r
		e.targets = append(e.targets, memreq.Target{
			Thread: r.Thread, Tag: r.Tag, Flit: a.win.FlitID(r.Addr),
		})
		if a.tracing {
			e.span = &obs.TxSpan{FirstPush: uint64(now), LastMerge: uint64(now)}
		}
		return true
	}

	if a.win.CrossesBoundary(r.Addr, uint32(r.Size)) {
		// The access straddles two coalescing windows; split it at
		// the boundary so the tail FLIT is actually requested
		// (FlitSpan clips to one window). The two halves occupy two
		// comparator lanes, so conservatively require two free
		// entries — each half then needs at most one allocation and
		// the pair is accepted atomically.
		if a.Free() < 2 {
			return false
		}
		headBytes := uint32(a.win.Bytes) - uint32(r.Addr&uint64(a.win.Bytes-1))
		head, tail := r, r
		head.Size = uint8(headBytes)
		tail.Addr = r.Addr + uint64(headBytes)
		tail.Size = uint8(uint32(r.Size) - headBytes)
		a.cSplits.Inc()
		a.pushData(head, now, false)
		a.pushData(tail, now, true)
		return true
	}
	return a.pushData(r, now, false)
}

// pushData merges or allocates one window-contained load/store. cont
// marks the tail half of a boundary-split request: its target retires
// nothing (the head half owns the LSQ slot).
func (a *Aggregator) pushData(r memreq.RawRequest, now sim.Cycle, cont bool) bool {
	// Latency-hiding fill mode: (re)arm when over half the ARQ is
	// free, then let that many requests skip the comparators.
	if a.cfg.FillMode && a.fillBudget == 0 && a.Free() > a.cfg.Entries/2 {
		a.fillBudget = a.Free()
	}

	if a.fences == 0 && a.fillBudget == 0 {
		if e := a.lookupOpen(a.win.Tag(r.Addr, r.Store)); e != nil {
			first, last := a.win.FlitSpan(r.Addr, uint32(r.Size))
			e.fmap = e.fmap.SetRange(first, last)
			e.targets = append(e.targets, memreq.Target{
				Thread: r.Thread, Tag: r.Tag, Flit: first, Cont: cont,
			})
			e.span.MarkMerge(uint64(now))
			a.cMerges.Inc()
			if len(e.targets) >= a.cfg.MaxTargets {
				e.closed = true
				e.inOpen = false
			}
			return true
		}
	}

	if a.Full() {
		return false
	}
	first, last := a.win.FlitSpan(r.Addr, uint32(r.Size))
	tag := a.win.Tag(r.Addr, r.Store)
	if a.fences == 0 {
		// The newest entry for a tag is the merge candidate: a
		// fill-mode allocation steals the lane from any older entry
		// with the same tag (the map representation did this by
		// overwriting the index).
		a.closeOpen(tag)
	}
	e := a.alloc()
	e.tag = tag
	e.fmap = WideMap(0).SetRange(first, last)
	e.raw = r
	e.targets = append(e.targets, memreq.Target{
		Thread: r.Thread, Tag: r.Tag, Flit: first, Cont: cont,
	})
	if a.tracing {
		e.span = &obs.TxSpan{FirstPush: uint64(now), LastMerge: uint64(now)}
	}
	a.cAllocs.Inc()
	if a.fillBudget > 0 {
		a.fillBudget--
		// Entries allocated in fill mode still become visible to
		// later comparisons once the budget drains, unless a fence
		// is pending.
	}
	if a.fences == 0 {
		e.inOpen = true
	}
	// Entries allocated while a fence is queued stay out of the
	// comparator lanes until the fence drains (rebuildOpen).
	return true
}

// Pop removes and returns the head entry if one exists. The caller (the
// MAC unit) enforces the one-pop-per-two-cycles rate and decides, via
// the B bit, whether the entry bypasses the builder. A fence entry is
// returned with fence=true; the MAC holds it until outstanding
// transactions drain.
func (a *Aggregator) Pop() (arqEntry, bool) {
	if a.count == 0 {
		return arqEntry{}, false
	}
	head := a.popHead()
	if !head.fence && !head.atomic {
		// B bit check (paper §4.1.2): exactly one merged request
		// means nothing else coalesced into this row — bypass.
		head.bypass = len(head.targets) == 1
	}
	return head, true
}

// PeekFence reports whether the head entry is a fence.
func (a *Aggregator) PeekFence() bool {
	return a.count > 0 && a.ring[a.head].fence
}

// SampleOccupancy records one occupancy observation. The MAC calls it
// once per Tick, so OccupancyMean is a true time average — the old
// push-time sampling was biased toward push-heavy phases and read 0
// during drain.
func (a *Aggregator) SampleOccupancy() {
	a.lastSample = a.count
	a.occupancySum += uint64(a.count)
	a.occupancySamples++
}

// OccupancyMean returns the mean ARQ occupancy over sampled cycles.
func (a *Aggregator) OccupancyMean() float64 {
	if a.occupancySamples == 0 {
		return 0
	}
	return float64(a.occupancySum) / float64(a.occupancySamples)
}

// attachObs wires the aggregator's counters into the run's registry
// and enables span allocation when tracing is on.
func (a *Aggregator) attachObs(o *obs.Obs) {
	a.tracing = o.Tracing()
	reg := o.Reg()
	a.cMerges = reg.Counter("mac.arq.merges")
	a.cAllocs = reg.Counter("mac.arq.allocs")
	a.cSplits = reg.Counter("mac.arq.window_splits")
	reg.Func("mac.arq.occupancy_mean", a.OccupancyMean)
	reg.Func("mac.arq.fences", func() float64 { return float64(a.fences) })
	// The watch reports the cycle's sampled occupancy rather than a
	// live read, so the timeseries mean reproduces OccupancyMean
	// exactly instead of drifting by pop-phase skew.
	o.Rec().Watch("mac.arq.occupancy", func() float64 { return float64(a.lastSample) })
}

// Reset restores the aggregator to empty (the slab pool survives).
func (a *Aggregator) Reset() {
	a.head, a.count = 0, 0
	a.fences = 0
	a.fillBudget = 0
	a.occupancySum, a.occupancySamples = 0, 0
}

// SpaceBytes returns the hardware area model of the ARQ in bytes
// (64B per entry, Fig. 16), excluding comparators.
func (c AggregatorConfig) SpaceBytes() int { return c.Entries * 64 }
