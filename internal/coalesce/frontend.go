package coalesce

import (
	"mac3d/internal/addr"
	"mac3d/internal/memreq"
	"mac3d/internal/queue"
	"mac3d/internal/sim"
)

// frontend is the bookkeeping Null, MSHR, Warp and MemCache share: the
// input FIFO and its held-fence rule, the memreq.Tally behind Stats,
// Inflight and the in-flight guard of Completed, the target-slab pool
// behind Recycle, and the buffer Tick returns. Each design embeds it
// and keeps only its own Tick, plus its own Completed and Reset where
// it tracks per-transaction state.
type frontend struct {
	q         *queue.FIFO[memreq.RawRequest]
	heldFence bool
	memreq.Tally
	memreq.TargetPool
	out []memreq.Built
}

func newFrontend(queueDepth, slabCap int) frontend {
	return frontend{
		q:          queue.New[memreq.RawRequest](queueDepth),
		Tally:      memreq.NewTally(),
		TargetPool: memreq.NewTargetPool(slabCap),
	}
}

// Push offers one raw request; it reports acceptance.
func (f *frontend) Push(r memreq.RawRequest, _ sim.Cycle) bool {
	return f.CountPush(r, f.q.Push(r))
}

// head returns the queued request the design may act on this cycle.
// A fence reaching the head is popped and held until every earlier
// transaction has completed; popping it ends the cycle.
func (f *frontend) head() (memreq.RawRequest, bool) {
	if f.heldFence {
		if f.Inflight() != 0 {
			return memreq.RawRequest{}, false
		}
		f.heldFence = false
	}
	r, ok := f.q.Peek()
	if ok && r.Fence {
		f.q.Pop()
		f.heldFence = true
		return r, false
	}
	return r, ok
}

// single emits the transaction that serves r alone, sized by
// memreq.Direct, with r's target in a pooled slab. bypassed marks it as
// skipping the design's merging structure.
func (f *frontend) single(r memreq.RawRequest, bypassed bool) memreq.Built {
	b := memreq.Direct(r, f.Take(r.Target()))
	b.Bypassed = bypassed
	f.CountEmit(&b)
	return b
}

// emit returns bs in the frontend's reused Tick buffer, valid until the
// next Tick, so emitting allocates nothing once the buffer is warm.
func (f *frontend) emit(bs ...memreq.Built) []memreq.Built {
	f.out = append(f.out[:0], bs...)
	return f.out
}

// Pending returns queued raw requests, counting a held fence.
func (f *frontend) Pending() int {
	if f.heldFence {
		return f.q.Len() + 1
	}
	return f.q.Len()
}

// Reset empties the queue and the statistics; the slab pool survives.
func (f *frontend) Reset() {
	f.q.Reset()
	f.heldFence = false
	f.Tally = memreq.NewTally()
}

// lineSpan returns the lineBytes-aligned line holding r and the payload
// of a transaction fetching it for r: the whole line, extended to r's
// last FLIT when r runs past the line end.
func lineSpan(r memreq.RawRequest, lineBytes uint32) (line uint64, bytes uint32) {
	line = r.Addr & addr.PhysMask &^ uint64(lineBytes-1)
	base, n := r.FlitSpan()
	bytes = lineBytes
	if over := uint32(base&addr.PhysMask + uint64(n) - line); over > bytes {
		bytes = over
	}
	return line, bytes
}

// covers reports whether r's FLIT span lies inside the dispatched
// transaction of bytes at txAddr — the condition for a request merged
// after dispatch to be delivered by that transaction's response.
func covers(txAddr uint64, bytes uint32, r memreq.RawRequest) bool {
	base, n := r.FlitSpan()
	base &= addr.PhysMask
	return base >= txAddr && base+uint64(n) <= txAddr+uint64(bytes)
}
