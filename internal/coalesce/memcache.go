package coalesce

import (
	"fmt"

	"mac3d/internal/addr"
	"mac3d/internal/cache"
	"mac3d/internal/hmc"
	"mac3d/internal/memreq"
	"mac3d/internal/obs"
	"mac3d/internal/sim"
)

// MemCacheConfig parameterizes the die-stacked memory+cache frontend.
type MemCacheConfig struct {
	// DirectFraction is the share of DRAM rows served as plain
	// directly addressed stacked memory, in [0, 1]. The remaining rows
	// route through the stacked cache. Rows are assigned to the two
	// partitions by a deterministic hash of the row number, so the
	// split holds for any footprint.
	DirectFraction float64
	// CacheBytes, LineBytes and Ways give the stacked cache geometry
	// (see internal/cache).
	CacheBytes uint64
	LineBytes  uint32
	Ways       int
	// MaxFills bounds outstanding line fills; a full fill table stalls
	// further cache-region misses.
	MaxFills int
	// MaxMerges bounds raw requests riding one line fill (the initial
	// miss plus hit-under-miss merges).
	MaxMerges int
	// QueueDepth sizes the input FIFO.
	QueueDepth int
}

// DefaultMemCacheConfig returns a half-memory/half-cache split with a
// 128KB 8-way stacked cache of 64B lines — small enough that the
// benchmark footprints exercise both fills and dirty writebacks.
func DefaultMemCacheConfig() MemCacheConfig {
	return MemCacheConfig{
		DirectFraction: 0.5,
		CacheBytes:     128 << 10,
		LineBytes:      64,
		Ways:           8,
		MaxFills:       16,
		MaxMerges:      12,
		QueueDepth:     64,
	}
}

// Validate reports the first configuration error, or nil.
func (c MemCacheConfig) Validate() error {
	switch {
	case c.DirectFraction < 0 || c.DirectFraction > 1:
		return fmt.Errorf("coalesce: MemCache DirectFraction must be in [0, 1], got %g", c.DirectFraction)
	case c.LineBytes < addr.FlitBytes:
		return fmt.Errorf("coalesce: MemCache LineBytes must be at least one FLIT (%d), got %d", addr.FlitBytes, c.LineBytes)
	case c.MaxFills <= 0 || c.MaxFills > 4096:
		return fmt.Errorf("coalesce: MemCache MaxFills must be in [1, 4096], got %d", c.MaxFills)
	case c.MaxMerges <= 0:
		return fmt.Errorf("coalesce: MemCache MaxMerges must be positive, got %d", c.MaxMerges)
	case c.QueueDepth <= 0:
		return fmt.Errorf("coalesce: MemCache QueueDepth must be positive, got %d", c.QueueDepth)
	}
	return cache.Config{SizeBytes: c.CacheBytes, LineBytes: c.LineBytes, Ways: c.Ways}.Validate()
}

// fillEntry is one outstanding line fill: the dispatched transaction,
// which starts at line and carries txBytes (for merge-coverage checks),
// and targets merged after dispatch.
type fillEntry struct {
	line    uint64 // line-aligned physical address, fill-table key
	txBytes uint32
	late    []memreq.Target
}

// MemCache models the die-stacked "part memory, part cache" design of
// Bakhshalipour et al.: a deterministic hash of the DRAM row number
// splits the stacked capacity into a directly addressed partition
// (requests pass through like the raw path) and a cached partition
// backed by an inclusive set-associative store (internal/cache). A
// cache hit is served by one short stacked access; a miss allocates the
// line and emits LineBytes of fill traffic that later same-line
// requests merge onto (hit-under-miss); evicting a dirty line emits a
// zero-target writeback transaction.
//
// Against MAC this models spending stacked capacity instead of
// request-stream smarts: temporal reuse is captured by the tags, but
// there is no spatial aggregation beyond the line, and cold or
// streaming workloads pay full fill traffic.
type MemCache struct {
	frontend
	cfg   MemCacheConfig
	cache *cache.Cache

	// threshold is DirectFraction scaled to 32 bits: a row is direct
	// when the top half of its hashed number falls below it.
	threshold uint64

	fills    map[uint64]*fillEntry
	freeFill []*fillEntry
}

var _ memreq.Coalescer = (*MemCache)(nil)
var _ obs.Attacher = (*MemCache)(nil)

// NewMemCache builds the die-stacked frontend, returning an error on
// bad config.
func NewMemCache(cfg MemCacheConfig) (*MemCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tags, err := cache.New(cache.Config{
		SizeBytes: cfg.CacheBytes, LineBytes: cfg.LineBytes, Ways: cfg.Ways,
	})
	if err != nil {
		return nil, err
	}
	mc := &MemCache{
		frontend:  newFrontend(cfg.QueueDepth, cfg.MaxMerges),
		cfg:       cfg,
		cache:     tags,
		threshold: uint64(cfg.DirectFraction * float64(1<<32)),
		fills:     make(map[uint64]*fillEntry, cfg.MaxFills),
	}
	mc.Stats().MemCache = &memreq.MemCacheStats{}
	return mc, nil
}

// mix64 is the splitmix64 finalizer — the partition hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// direct reports whether address a falls in the directly addressed
// partition.
func (mc *MemCache) direct(a uint64) bool {
	return mix64(addr.RowNumber(a))>>32 < mc.threshold
}

// takeFill returns a pooled (or fresh) empty fill entry.
func (mc *MemCache) takeFill() *fillEntry {
	if n := len(mc.freeFill); n > 0 {
		fe := mc.freeFill[n-1]
		mc.freeFill = mc.freeFill[:n-1]
		fe.late = fe.late[:0]
		return fe
	}
	late := []memreq.Target(nil)
	if mc.cfg.MaxMerges > 1 {
		late = make([]memreq.Target, 0, mc.cfg.MaxMerges-1)
	}
	return &fillEntry{late: late}
}

// Tick processes one queued request per cycle: route it to the direct
// partition, serve it from the stacked cache, merge it onto an
// in-flight fill, or allocate a fill (plus a writeback when the victim
// line is dirty).
func (mc *MemCache) Tick(sim.Cycle) []memreq.Built {
	head, ok := mc.head()
	if !ok {
		return nil
	}
	st := mc.Stats()
	if head.Atomic {
		mc.q.Pop()
		return mc.emit(mc.single(head, true))
	}
	if mc.direct(head.Addr) {
		mc.q.Pop()
		st.MemCache.DirectAccesses++
		return mc.emit(mc.single(head, false))
	}

	probe := head.Addr & addr.PhysMask
	line, size := lineSpan(head, mc.cfg.LineBytes)
	if fe := mc.fills[line]; fe != nil {
		if 1+len(fe.late) < mc.cfg.MaxMerges && covers(line, fe.txBytes, head) {
			// Hit under miss: ride the in-flight fill, no new traffic.
			mc.q.Pop()
			fe.late = append(fe.late, head.Target())
			if head.Store {
				mc.cache.MarkDirty(probe)
			}
			st.MemCache.MergedMisses++
			return nil
		}
		// Merge budget or coverage exhausted: structural stall until
		// the fill completes, after which the line hits in the tags.
		return nil
	}

	if len(mc.fills) >= mc.cfg.MaxFills && !mc.cache.Contains(probe) {
		return nil // fill table full: stall
	}

	mc.q.Pop()
	hit, evicted, evictedDirty := mc.cache.AccessDirty(probe, head.Store)
	if hit {
		// Served by the stacked cache: one short stacked access.
		st.MemCache.Hits++
		return mc.emit(mc.single(head, false))
	}

	// Miss: fetch the whole line (write-allocate), extended when the
	// access spills past the line end so the target's FLIT span is
	// covered.
	st.MemCache.Misses++
	fe := mc.takeFill()
	fe.line, fe.txBytes = line, size
	mc.fills[line] = fe
	b := memreq.Built{
		Req:     hmc.Request{Kind: hmc.Read, Addr: line, Data: size},
		Targets: mc.Take(head.Target()),
		Handle:  fe,
	}
	mc.CountEmit(&b)
	if !evictedDirty {
		return mc.emit(b)
	}
	// The victim line held stores: write it back. The transaction
	// retires no raw request (zero targets).
	st.MemCache.Writebacks++
	wb := memreq.Built{
		Req: hmc.Request{Kind: hmc.Write, Addr: evicted, Data: mc.cfg.LineBytes},
	}
	mc.CountEmit(&wb)
	return mc.emit(b, wb)
}

// Completed frees the fill entry of a finished line fetch and folds any
// targets merged after dispatch into the transaction's target list so
// the caller's response routing delivers them too.
func (mc *MemCache) Completed(b *memreq.Built) {
	mc.frontend.Completed(b)
	if fe, ok := b.Handle.(*fillEntry); ok && fe != nil {
		if len(fe.late) > 0 {
			// A pooled Targets has cap MaxMerges and dispatch + late
			// is at most MaxMerges, so this append stays in place.
			b.Targets = append(b.Targets, fe.late...)
		}
		delete(mc.fills, fe.line)
		mc.freeFill = append(mc.freeFill, fe)
	}
	mc.Stats().TargetsPerTx.Observe(uint64(len(b.Targets)))
}

// CacheStats returns the stacked tag array's counters.
func (mc *MemCache) CacheStats() cache.Stats { return mc.cache.Stats() }

// Reset restores the initial empty state (the pools survive).
func (mc *MemCache) Reset() {
	mc.frontend.Reset()
	mc.cache.Reset()
	for line, fe := range mc.fills {
		mc.freeFill = append(mc.freeFill, fe)
		delete(mc.fills, line)
	}
	mc.Stats().MemCache = &memreq.MemCacheStats{}
}

// AttachObs registers the frontend's fill-table and queue state into a
// run's observability layer.
func (mc *MemCache) AttachObs(o *obs.Obs) {
	reg := o.Reg()
	reg.Func("memcache.fills", func() float64 { return float64(len(mc.fills)) })
	reg.Func("memcache.queue", func() float64 { return float64(mc.q.Len()) })
	rec := o.Rec()
	rec.Watch("memcache.fills", func() float64 { return float64(len(mc.fills)) })
	rec.Watch("memcache.queue", func() float64 { return float64(mc.q.Len()) })
}
