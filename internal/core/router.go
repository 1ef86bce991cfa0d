package core

import (
	"fmt"

	"mac3d/internal/addr"
	"mac3d/internal/hmc"
	"mac3d/internal/memreq"
	"mac3d/internal/queue"
	"mac3d/internal/sim"
)

// RouterConfig sizes the request router's decoupling queues (§3.1).
type RouterConfig struct {
	// NodeID identifies the node this router belongs to.
	NodeID int
	// Nodes is the number of NUMA nodes; 1 disables remote routing.
	Nodes int
	// InterleaveBytes is the block size of the address interleave
	// across nodes (default: one 256B row).
	InterleaveBytes uint64
	// LocalDepth, GlobalDepth and RemoteDepth size the three FIFO
	// queues.
	LocalDepth  int
	GlobalDepth int
	RemoteDepth int
}

// DefaultRouterConfig returns a single-node router with generous
// decoupling queues.
func DefaultRouterConfig() RouterConfig {
	return RouterConfig{
		NodeID:          0,
		Nodes:           1,
		InterleaveBytes: addr.RowBytes,
		LocalDepth:      64,
		GlobalDepth:     64,
		RemoteDepth:     64,
	}
}

// Validate reports the first configuration error, or nil.
func (c RouterConfig) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("core: router Nodes must be positive, got %d", c.Nodes)
	case c.NodeID < 0 || c.NodeID >= c.Nodes:
		return fmt.Errorf("core: router NodeID %d out of range [0,%d)", c.NodeID, c.Nodes)
	case c.LocalDepth <= 0 || c.GlobalDepth <= 0 || c.RemoteDepth <= 0:
		return fmt.Errorf("core: router queue depths must be positive")
	}
	return nil
}

// OutboundRequest is a raw request annotated with its destination node,
// parked in the Global Access Queue until the interconnect picks it up.
type OutboundRequest struct {
	Req  memreq.RawRequest
	Dest int
}

// Router is the request router of §3.1. Raw requests from the local
// cores are classified by the owning node of their physical address:
// local requests land in the Local Access Queue, remote-destined ones
// in the Global Access Queue. Requests arriving from other nodes are
// parked in the Remote Access Queue. The MAC drains the local and
// remote queues (local first, round-robin on ties).
type Router struct {
	cfg    RouterConfig
	local  *queue.FIFO[memreq.RawRequest]
	global *queue.FIFO[OutboundRequest]
	remote *queue.FIFO[memreq.RawRequest]
	// preferRemote alternates fairness between local/remote drains.
	preferRemote bool

	routedLocal  uint64
	routedGlobal uint64
	routedRemote uint64

	// OnDrain, when non-nil, observes every request handed to the
	// coalescer by DrainToMAC (the audit ledger's route→coalesce
	// lifecycle edge).
	OnDrain func(req memreq.RawRequest, now sim.Cycle)
}

// NewRouter builds a router, returning a wrapped configuration error.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid router config: %w", err)
	}
	if cfg.InterleaveBytes == 0 {
		cfg.InterleaveBytes = addr.RowBytes
	}
	return &Router{
		cfg:    cfg,
		local:  queue.New[memreq.RawRequest](cfg.LocalDepth),
		global: queue.New[OutboundRequest](cfg.GlobalDepth),
		remote: queue.New[memreq.RawRequest](cfg.RemoteDepth),
	}, nil
}

// MustNewRouter is NewRouter panicking on error, for tests and static
// fixtures.
func MustNewRouter(cfg RouterConfig) *Router {
	r, err := NewRouter(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// Config returns the router configuration.
func (r *Router) Config() RouterConfig { return r.cfg }

// Dest returns the node owning the address under the interleave.
func (r *Router) Dest(a uint64) int {
	return addr.NodeOf(a, r.cfg.Nodes, r.cfg.InterleaveBytes)
}

// OfferLocal classifies one raw request generated by the local cores
// and reports whether it was queued (false models back-pressure).
// Fences are always local: they order the local memory stream.
func (r *Router) OfferLocal(req memreq.RawRequest) bool {
	if req.Fence || r.Dest(req.Addr) == r.cfg.NodeID {
		if r.local.Push(req) {
			r.routedLocal++
			return true
		}
		return false
	}
	if r.global.Push(OutboundRequest{Req: req, Dest: r.Dest(req.Addr)}) {
		r.routedGlobal++
		return true
	}
	return false
}

// OfferRemote queues a raw request that arrived from another node.
func (r *Router) OfferRemote(req memreq.RawRequest) bool {
	if r.remote.Push(req) {
		r.routedRemote++
		return true
	}
	return false
}

// PopOutbound removes the next remote-destined request, for the
// interconnect model to deliver.
func (r *Router) PopOutbound() (OutboundRequest, bool) { return r.global.Pop() }

// PeekOutbound returns the next remote-destined request without
// removing it, so the interconnect model can test whether the fabric
// accepts it before committing the pop.
func (r *Router) PeekOutbound() (OutboundRequest, bool) { return r.global.Peek() }

// DrainToMAC feeds at most one queued raw request into the MAC at
// cycle now (the ARQ accepts one request per cycle, §4.1). Local and
// remote queues alternate when both are non-empty. It reports whether
// a request was transferred.
func (r *Router) DrainToMAC(m memreq.Coalescer, now sim.Cycle) bool {
	first, second := r.local, r.remote
	if r.preferRemote && !r.remote.Empty() {
		first, second = r.remote, r.local
	}
	for _, q := range []*queue.FIFO[memreq.RawRequest]{first, second} {
		req, ok := q.Peek()
		if !ok {
			continue
		}
		if !m.Push(req, now) {
			return false // ARQ full: preserve FIFO order, retry next cycle
		}
		q.Pop()
		r.preferRemote = q == r.local
		if r.OnDrain != nil {
			r.OnDrain(req, now)
		}
		return true
	}
	return false
}

// Pending returns the total requests parked across the three queues.
func (r *Router) Pending() int {
	return r.local.Len() + r.global.Len() + r.remote.Len()
}

// Stats returns how many requests were routed to each queue.
func (r *Router) Stats() (local, global, remote uint64) {
	return r.routedLocal, r.routedGlobal, r.routedRemote
}

// QueueStats returns the occupancy statistics of the three queues.
func (r *Router) QueueStats() (local, global, remote queue.Stats) {
	return r.local.Stats(), r.global.Stats(), r.remote.Stats()
}

// Reset empties all queues and statistics.
func (r *Router) Reset() {
	r.local.Reset()
	r.global.Reset()
	r.remote.Reset()
	r.preferRemote = false
	r.routedLocal, r.routedGlobal, r.routedRemote = 0, 0, 0
}

// ResponseStatus classifies how the response router handled one device
// response. Under a perfect link every response is RespDelivered; fault
// injection additionally surfaces poisoned packets, duplicates (a
// retransmitted response whose original already arrived), and tags
// that map to no outstanding transaction.
type ResponseStatus int

const (
	// RespDelivered is a normal completion: the transaction's target
	// buffer entry was found, consumed, and returned.
	RespDelivered ResponseStatus = iota
	// RespPoisoned is a completion whose data is unusable (link-retry
	// budget exhausted). The entry is consumed — no leak — and the
	// caller must retire the targets with an error status.
	RespPoisoned
	// RespDuplicate is a response for a transaction already retired;
	// it carries no entry and must be ignored.
	RespDuplicate
	// RespUnknown is a response whose tag was never issued (a corrupt
	// or misrouted packet); it carries no entry and must be ignored.
	RespUnknown
)

// String names the status.
func (s ResponseStatus) String() string {
	switch s {
	case RespDelivered:
		return "delivered"
	case RespPoisoned:
		return "poisoned"
	case RespDuplicate:
		return "duplicate"
	case RespUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("ResponseStatus(%d)", int(s))
	}
}

// ResponseRouterStats counts response-router outcomes.
type ResponseRouterStats struct {
	// Delivered counts normal completions.
	Delivered uint64
	// Poisoned counts completions delivered with the poison bit.
	Poisoned uint64
	// Duplicates counts responses for already-retired transactions.
	Duplicates uint64
	// Unknown counts responses whose tag was never issued.
	Unknown uint64
	// RegisterRejects counts Register calls refused because the
	// target buffer was full (backpressure to the submitter).
	RegisterRejects uint64
}

// pendingTx is one target-buffer slot: a built transaction, held by
// value, and the cycle it was registered.
type pendingTx struct {
	b          memreq.Built
	registered sim.Cycle
}

// txChunk is the number of slots allocated together. Chunks never move,
// so a slot's address stays valid for as long as the slot is held.
const txChunk = 64

// ResponseRouter is the §3.3 response router's bookkeeping half: it
// owns the target buffer mapping device tags to built transactions.
// Tags are assigned monotonically at Register time, which is what lets
// Deliver tell a duplicate (tag already issued and retired) from a
// response that was never issued at all — without retaining retired
// entries.
//
// The buffer holds transactions by value in a slab of fixed chunks
// with a free list, so registering one allocates nothing once the slab
// has grown to the run's peak occupancy. A slot lives from Register
// until the driver hands the delivered transaction back through
// Recycle.
type ResponseRouter struct {
	// cap bounds outstanding transactions; 0 means unbounded.
	cap int
	// outstanding maps the tag of every undelivered transaction to
	// its slot.
	outstanding map[uint64]int32
	slab        []*[txChunk]pendingTx
	free        []int32
	// delivered holds the slots Deliver handed out, until Recycle.
	delivered []int32
	lastTag   uint64
	st        ResponseRouterStats
}

// NewResponseRouter builds a response router whose target buffer holds
// at most maxOutstanding transactions (0 = unbounded).
func NewResponseRouter(maxOutstanding int) *ResponseRouter {
	return &ResponseRouter{
		cap:         maxOutstanding,
		outstanding: make(map[uint64]int32),
	}
}

// slot returns the slot at index i.
func (r *ResponseRouter) slot(i int32) *pendingTx {
	return &r.slab[i/txChunk][i%txChunk]
}

// Register assigns b a fresh device tag, stamps it into b.Req.Tag, and
// parks a copy of b in the target buffer until its response arrives.
// It reports false — without consuming a tag — when the buffer is
// full; the caller must hold the transaction and retry
// (backpressure). Register does not retain b.
func (r *ResponseRouter) Register(b *memreq.Built, now sim.Cycle) (uint64, bool) {
	if r.cap > 0 && len(r.outstanding) >= r.cap {
		r.st.RegisterRejects++
		return 0, false
	}
	if len(r.free) == 0 {
		base := int32(len(r.slab) * txChunk)
		r.slab = append(r.slab, new([txChunk]pendingTx))
		for i := int32(txChunk) - 1; i >= 0; i-- {
			r.free = append(r.free, base+i)
		}
	}
	i := r.free[len(r.free)-1]
	r.free = r.free[:len(r.free)-1]
	r.lastTag++
	b.Req.Tag = r.lastTag
	*r.slot(i) = pendingTx{b: *b, registered: now}
	r.outstanding[r.lastTag] = i
	return r.lastTag, true
}

// Deliver consumes the target-buffer entry for resp and classifies the
// delivery. The returned Built is non-nil only for RespDelivered and
// RespPoisoned; either way the entry is removed exactly once, so
// duplicate or unknown responses can never leak or double-retire a
// transaction. The returned Built stays valid until it is passed to
// Recycle.
func (r *ResponseRouter) Deliver(resp hmc.Response) (*memreq.Built, ResponseStatus) {
	i, ok := r.outstanding[resp.Tag]
	if !ok {
		if resp.Tag != 0 && resp.Tag <= r.lastTag {
			r.st.Duplicates++
			return nil, RespDuplicate
		}
		r.st.Unknown++
		return nil, RespUnknown
	}
	delete(r.outstanding, resp.Tag)
	r.delivered = append(r.delivered, i)
	b := &r.slot(i).b
	if resp.Poisoned {
		r.st.Poisoned++
		return b, RespPoisoned
	}
	r.st.Delivered++
	return b, RespDelivered
}

// Recycle frees the slot of a Built that Deliver returned, once the
// driver is completely done with it; b must not be used afterwards. A
// pointer Deliver did not hand out is ignored. A driver that never
// recycles keeps every delivered slot allocated.
func (r *ResponseRouter) Recycle(b *memreq.Built) {
	for k, i := range r.delivered {
		s := r.slot(i)
		if &s.b != b {
			continue
		}
		*s = pendingTx{}
		last := len(r.delivered) - 1
		r.delivered[k] = r.delivered[last]
		r.delivered = r.delivered[:last]
		r.free = append(r.free, i)
		return
	}
}

// Pending returns the number of outstanding transactions.
func (r *ResponseRouter) Pending() int { return len(r.outstanding) }

// Oldest returns the longest-outstanding transaction — the prime
// suspect when the watchdog detects a hang — or ok=false when the
// buffer is empty.
func (r *ResponseRouter) Oldest() (tag uint64, registered sim.Cycle, b *memreq.Built, ok bool) {
	first := true
	for t, i := range r.outstanding {
		tx := r.slot(i)
		if first || tx.registered < registered || (tx.registered == registered && t < tag) {
			tag, registered, b, ok = t, tx.registered, &tx.b, true
			first = false
		}
	}
	return
}

// Stats returns the accumulated outcome counts.
func (r *ResponseRouter) Stats() ResponseRouterStats { return r.st }

// Reset empties the target buffer and statistics.
func (r *ResponseRouter) Reset() {
	clear(r.outstanding)
	r.free, r.delivered = r.free[:0], r.delivered[:0]
	for i := int32(len(r.slab)*txChunk) - 1; i >= 0; i-- {
		*r.slot(i) = pendingTx{}
		r.free = append(r.free, i)
	}
	r.lastTag = 0
	r.st = ResponseRouterStats{}
}
