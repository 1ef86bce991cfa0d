package memreq

import (
	"mac3d/internal/addr"
	"mac3d/internal/hmc"
)

// Target returns the response-routing target of r served on its own:
// its thread, its tag and the FLIT it starts in.
func (r RawRequest) Target() Target {
	return Target{Thread: r.Thread, Tag: r.Tag, Flit: addr.FlitID(r.Addr)}
}

// FlitSpan returns the FLIT-aligned address r starts in and the bytes
// of every FLIT r touches; a Size of 0 counts as one byte. The span of
// an access that starts mid-FLIT and runs into the next FLIT covers
// both.
func (r RawRequest) FlitSpan() (base uint64, bytes uint32) {
	size := uint32(r.Size)
	if size == 0 {
		size = 1
	}
	off := uint32(r.Addr & addr.FlitMask)
	return r.Addr &^ uint64(addr.FlitMask), (off + size + addr.FlitMask) &^ addr.FlitMask
}

// Direct returns the transaction that serves r alone, its FLIT span,
// carrying targets. Every design sizes single-request transactions —
// MAC's bypass, the raw path, atomics — through it.
func Direct(r RawRequest, targets []Target) Built {
	kind := hmc.Read
	switch {
	case r.Atomic:
		kind = hmc.AtomicOp
	case r.Store:
		kind = hmc.Write
	}
	base, n := r.FlitSpan()
	return Built{Req: hmc.Request{Kind: kind, Addr: base, Data: n}, Targets: targets}
}

// Tally is the bookkeeping every Coalescer keeps the same way: its
// Stats and the count of emitted transactions not yet completed.
// Embedding it supplies Stats, Inflight and a Completed that only
// counts; a design with per-transaction state calls Tally.Completed
// first from its own.
type Tally struct {
	st       *Stats
	inflight int
}

// NewTally returns an empty Tally.
func NewTally() Tally { return Tally{st: NewStats()} }

// CountPush records the outcome of offering r and returns accepted: a
// refusal is a PushReject, an accepted fence a Fence, and any other
// accepted request a raw request of its kind.
func (t *Tally) CountPush(r RawRequest, accepted bool) bool {
	switch {
	case !accepted:
		t.st.PushRejects++
	case r.Fence:
		t.st.Fences++
	case r.Atomic:
		t.st.RawRequests++
		t.st.RawAtomics++
	case r.Store:
		t.st.RawRequests++
		t.st.RawStores++
	default:
		t.st.RawRequests++
		t.st.RawLoads++
	}
	return accepted
}

// CountEmit records b leaving the coalescer: its payload is normalized,
// counted by size and bypass, and b joins the in-flight count. The
// TargetsPerTx observation stays with the caller, which knows when b's
// target list is final.
func (t *Tally) CountEmit(b *Built) {
	b.Req.Normalize()
	t.st.Transactions++
	if b.Bypassed {
		t.st.Bypassed++
	}
	t.st.BuiltBySizeBytes[b.Req.Data]++
	t.inflight++
}

// Completed records one emitted transaction completing. It panics when
// none is in flight.
func (t *Tally) Completed(*Built) {
	if t.inflight == 0 {
		panic("memreq: Completed without matching emission")
	}
	t.inflight--
}

// Inflight returns emitted transactions not yet completed.
func (t *Tally) Inflight() int { return t.inflight }

// Stats returns the accumulated statistics.
func (t *Tally) Stats() *Stats { return t.st }

// TargetPool recycles the target slices a coalescer hands out in
// Builts, so the emit path stops allocating once the pool is warm.
// Embedding it supplies Recycler.
type TargetPool struct {
	slabCap int
	free    [][]Target
}

// NewTargetPool returns a pool whose fresh slabs hold slabCap targets.
func NewTargetPool(slabCap int) TargetPool { return TargetPool{slabCap: slabCap} }

// Take returns a slab from the pool, or a fresh one when it is dry,
// holding a copy of ts.
func (p *TargetPool) Take(ts ...Target) []Target {
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return append(s, ts...)
	}
	return append(make([]Target, 0, p.slabCap), ts...)
}

// Recycle implements Recycler: b's target slab returns to the pool.
func (p *TargetPool) Recycle(b *Built) {
	if b == nil || b.Targets == nil {
		return
	}
	if cap(b.Targets) > 0 {
		p.free = append(p.free, b.Targets[:0])
	}
	b.Targets = nil
}
