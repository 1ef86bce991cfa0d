// Package cpu models the cache-less multicore node of the paper's §3
// architecture: simple in-order cores with per-core scratchpad memory
// (SPM), a bounded load/store queue per core for spatial latency
// tolerance, the request/response routers, a pluggable coalescer (MAC,
// or a baseline), and the attached HMC device.
//
// The node replays pre-generated per-thread memory traces. Each cycle
// a core either executes non-memory instructions (the trace's gap
// counts), retires an SPM access locally, or issues a memory request
// into the request router, stalling when its load/store queue is full.
package cpu

import (
	"fmt"

	"mac3d/internal/addr"
	"mac3d/internal/audit"
	"mac3d/internal/chaos"
	"mac3d/internal/core"
	"mac3d/internal/hmc"
	"mac3d/internal/memreq"
	"mac3d/internal/noc"
	"mac3d/internal/obs"
	"mac3d/internal/queue"
	"mac3d/internal/sim"
	"mac3d/internal/stats"
	"mac3d/internal/trace"
)

// Config parameterizes the node.
type Config struct {
	// Cores is the number of in-order cores (Table 1: 8).
	Cores int
	// SPMLatency is the scratchpad access latency in cycles
	// (Table 1: 1ns ≈ 3–4 cycles at 3.3 GHz).
	SPMLatency sim.Cycle
	// MaxOutstanding bounds in-flight memory requests per core (the
	// load/store queue depth of §3.3).
	MaxOutstanding int
	// Router sizes the request router queues.
	Router core.RouterConfig
	// TargetBufferDepth bounds the response router's target buffer
	// (outstanding built transactions); 0 means unbounded, matching
	// the paper's evaluation. When bounded, a full buffer
	// backpressures the coalescer: built transactions wait in a
	// holding slot until an entry frees.
	TargetBufferDepth int
	// StallLimit is the simulation watchdog: a run making no forward
	// progress (no retirement, submission, or delivery) for this many
	// cycles aborts with a *StallError diagnostic instead of spinning
	// until MaxCycles. 0 disables the watchdog.
	StallLimit sim.Cycle
	// MaxCycles aborts a run that fails to drain (simulator guard).
	MaxCycles sim.Cycle
}

// DefaultConfig returns the Table 1 node configuration.
//
// MaxOutstanding defaults high (256) because the paper's evaluation is
// offered-load driven: Figure 9 reports an average of 9.32 raw
// requests per cycle entering the MAC — far above its 0.5/cycle
// service rate — which is only possible when issue is decoupled from
// completion. A small LSQ throttles the offered load so far that the
// ARQ never holds two mergeable requests (see the LSQ-depth ablation
// bench). Set a small value to model strict stall-on-use cores.
func DefaultConfig() Config {
	return Config{
		Cores:          8,
		SPMLatency:     4,
		MaxOutstanding: 256,
		Router:         core.DefaultRouterConfig(),
		StallLimit:     1_000_000,
		MaxCycles:      2_000_000_000,
	}
}

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("cpu: Cores must be positive, got %d", c.Cores)
	case c.MaxOutstanding <= 0:
		return fmt.Errorf("cpu: MaxOutstanding must be positive, got %d", c.MaxOutstanding)
	case c.TargetBufferDepth < 0:
		return fmt.Errorf("cpu: TargetBufferDepth must be non-negative, got %d", c.TargetBufferDepth)
	case c.MaxCycles == 0:
		return fmt.Errorf("cpu: MaxCycles must be positive")
	}
	return c.Router.Validate()
}

// threadState replays one hardware thread's event stream.
type threadState struct {
	events []trace.Event
	pc     int
	// gapLeft counts remaining non-memory instruction cycles before
	// the next event may issue.
	gapLeft uint32
	// outstanding tracks in-flight (unretired) memory requests.
	outstanding int
	// nextTag generates per-thread transaction tags.
	nextTag uint16
	// spmBusy holds the completion cycle of an SPM access in
	// progress.
	spmBusy sim.Cycle
	// retired counts instructions completed (memory + gaps).
	retired uint64
	// Stall taxonomy: cycles lost per cause.
	stallLSQ    uint64 // load/store queue full
	stallRouter uint64 // request router queue full
	stallFence  uint64 // fence waiting for own outstanding requests
	// latency accumulates per-request issue-to-retire latency.
	latency stats.Histogram
	// issuedAt maps an in-flight tag to its issue cycle.
	issuedAt map[uint16]sim.Cycle
}

func (t *threadState) done() bool {
	return t.pc >= len(t.events) && t.outstanding == 0 && t.gapLeft == 0
}

// Result summarizes a completed node run.
type Result struct {
	// Cycles is the makespan: the cycle at which every thread had
	// retired all its work.
	Cycles sim.Cycle
	// Instructions is the total retired instruction count.
	Instructions uint64
	// MemRequests is the number of raw requests issued to the
	// memory path (SPM hits excluded).
	MemRequests uint64
	// SPMAccesses is the number of scratchpad hits.
	SPMAccesses uint64
	// IssueStalls counts cycles threads spent unable to issue,
	// broken down by cause in the three fields below.
	IssueStalls uint64
	// StallLSQ is cycles stalled on a full load/store queue.
	StallLSQ uint64
	// StallRouter is cycles stalled on router backpressure.
	StallRouter uint64
	// StallFence is cycles a fence waited for the thread's own
	// outstanding requests before issuing.
	StallFence uint64
	// RequestLatency is the issue-to-retire distribution of memory
	// requests, in cycles.
	RequestLatency stats.Histogram
	// Coalescer is the coalescing statistics snapshot.
	Coalescer memreq.Stats
	// Device is the HMC statistics snapshot.
	Device hmc.Stats
	// Responses is the response router's outcome counts (duplicates,
	// unknown tags, poisoned deliveries, target-buffer rejects).
	Responses core.ResponseRouterStats
	// FailedRequests counts raw requests retired with an error
	// status because their transaction's response was poisoned
	// (link-retry budget exhausted under fault injection).
	FailedRequests uint64
	// RetriedRequests counts poisoned completions re-issued under the
	// node's RetryPolicy (each counts once per re-issue).
	RetriedRequests uint64
	// RetireUnderflows and Misrouted count malformed response
	// deliveries survived (instead of panicking): a retire for a
	// thread with nothing outstanding, and a target naming a thread
	// the node does not run.
	RetireUnderflows uint64
	Misrouted        uint64
	// Audit is the end-of-run lifecycle-conservation report; nil
	// unless auditing was enabled via Node.EnableAudit.
	Audit *audit.Report
	// Chaos is the injected-adversity summary; nil unless a chaos
	// engine was attached via Node.SetChaos.
	Chaos *chaos.Stats
	// Cube is the intra-cube fabric's interconnect statistics; nil
	// unless the device runs a routed cube topology.
	Cube *noc.Stats
	// ARQOccupancy is the mean ARQ occupancy (MAC runs only).
	ARQOccupancy float64
	// RouterLocal/Global/Remote are the routing counts.
	RouterLocal, RouterGlobal, RouterRemote uint64
	// RemoteSent counts requests the node's threads issued to another
	// node's memory; RemoteServed counts targets the node served for
	// other nodes' threads. Both stay 0 on a lone node.
	RemoteSent, RemoteServed uint64
}

// IPC returns retired instructions per cycle across the node.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// RPI returns memory requests per instruction.
func (r *Result) RPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.MemRequests) / float64(r.Instructions)
}

// MemAccessRate returns the fraction of memory operations that reach
// the MAC (i.e. miss the SPM) — Eq. 2's mem_access_rate.
func (r *Result) MemAccessRate() float64 {
	total := r.MemRequests + r.SPMAccesses
	if total == 0 {
		return 0
	}
	return float64(r.MemRequests) / float64(total)
}

// RPC returns raw requests per cycle offered to the MAC (Eq. 2).
func (r *Result) RPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.MemRequests) / float64(r.Cycles)
}

// Node wires threads, router, coalescer and device together: one tile
// of the paper's §3 system. Threads are homed round-robin, so node
// Router.NodeID of Router.Nodes runs global thread t at index
// t / Router.Nodes.
type Node struct {
	cfg    Config
	router *core.Router
	coal   memreq.Coalescer
	// mac is coal when the run uses the MAC, else nil — for
	// occupancy sampling on cycles where the coalescer is not ticked.
	mac *core.MAC
	dev *hmc.Device

	threads []*threadState
	// issueRR rotates issue priority across cores for fairness.
	issueRR int

	// resp owns the target buffer mapping device tags to built
	// transactions and classifies every delivery.
	resp *core.ResponseRouter
	// deferred holds built transactions refused by a full target
	// buffer, resubmitted in order once entries free up. It never holds
	// more than one Tick's output: the coalescer is not ticked while it
	// is non-empty.
	deferred *queue.FIFO[memreq.Built]

	// obs is the run's observability handle; nil when disabled, and
	// every use is nil-safe so the hot path pays only pointer checks.
	obs *obs.Obs

	// progress counts retirements + submissions + deliveries; any
	// movement re-arms the machine's watchdog.
	progress uint64

	// fab carries Global/Remote traffic to the other nodes of a
	// Machine; nil on a lone node.
	fab noc.Fabric[payload]
	// respOut parks response messages the fabric refused (routed
	// topologies backpressure injection); drained before requests.
	respOut *queue.FIFO[noc.Message[payload]]

	// audit is the request-lifecycle ledger; nil when disabled, and
	// every call is nil-safe like the obs handle.
	audit *audit.Ledger
	// chaos is the deterministic chaos engine; nil when disabled.
	chaos *chaos.Engine
	// retry is the requester-side poison-recovery policy; the zero
	// value keeps the fail-on-poison behaviour.
	retry memreq.RetryPolicy
	// inflightReq remembers the raw request behind each in-flight
	// (thread, tag) so a poisoned completion can be re-issued;
	// populated only while retry is enabled.
	inflightReq map[reqKey]*reqAttempt
	// retryPend holds re-issues waiting out their backoff.
	retryPend []retryPend
	// dupDeliver is a test-only fault hook: every delivered response
	// replays its audit-visible target retirement a second time, the
	// double-delivery bug the ledger must catch.
	dupDeliver bool

	spmAccesses      uint64
	memRequests      uint64
	failedRequests   uint64
	retriedRequests  uint64
	retireUnderflows uint64
	misrouted        uint64
	remoteSent       uint64
	remoteServed     uint64
}

// reqKey identifies one in-flight raw request.
type reqKey struct {
	thread, tag uint16
}

// reqAttempt tracks the retry budget spent on one raw request.
type reqAttempt struct {
	req      memreq.RawRequest
	attempts int
}

// retryPend is one poisoned request waiting out its re-issue backoff.
type retryPend struct {
	due sim.Cycle
	req memreq.RawRequest
}

// NewNode builds a node around a coalescer and device, returning a
// wrapped configuration error. The coalescer and device must be
// freshly constructed or Reset.
func NewNode(cfg Config, coal memreq.Coalescer, dev *hmc.Device) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("cpu: invalid node config: %w", err)
	}
	router, err := core.NewRouter(cfg.Router)
	if err != nil {
		return nil, fmt.Errorf("cpu: %w", err)
	}
	mac, _ := coal.(*core.MAC)
	return &Node{
		cfg:      cfg,
		router:   router,
		coal:     coal,
		mac:      mac,
		dev:      dev,
		resp:     core.NewResponseRouter(cfg.TargetBufferDepth),
		deferred: queue.New[memreq.Built](2),
		respOut:  queue.New[noc.Message[payload]](8),
	}, nil
}

// MustNewNode is NewNode panicking on error, for tests and static
// fixtures.
func MustNewNode(cfg Config, coal memreq.Coalescer, dev *hmc.Device) *Node {
	n, err := NewNode(cfg, coal, dev)
	if err != nil {
		panic(err)
	}
	return n
}

// EnableAudit attaches a fresh request-lifecycle ledger. Call before
// Run; the end-of-run conservation report lands in Result.Audit.
func (n *Node) EnableAudit() {
	n.audit = audit.NewLedger()
	n.router.OnDrain = func(req memreq.RawRequest, now sim.Cycle) {
		n.audit.Drain(req, now)
	}
}

// SetChaos attaches a chaos engine (nil disables). Call before Run;
// Run declares the device's cube links to it.
func (n *Node) SetChaos(e *chaos.Engine) { n.chaos = e }

// SetRetry installs the requester-side poison-recovery policy. Call
// before Run; the zero policy keeps fail-on-poison behaviour.
func (n *Node) SetRetry(p memreq.RetryPolicy) {
	n.retry = p
	if p.Enabled() && n.inflightReq == nil {
		n.inflightReq = make(map[reqKey]*reqAttempt)
	}
}

// AttachObs wires the node and every component beneath it (coalescer,
// device) into a run's observability layer. Call once before Run; a
// nil handle leaves everything a no-op.
func (n *Node) AttachObs(o *obs.Obs) {
	n.obs = o
	if !o.Enabled() {
		return
	}
	if a, ok := n.coal.(obs.Attacher); ok {
		a.AttachObs(o)
	}
	n.dev.AttachObs(o)

	reg := o.Reg()
	reg.Func("node.mem_requests", func() float64 { return float64(n.memRequests) })
	reg.Func("node.spm_accesses", func() float64 { return float64(n.spmAccesses) })
	reg.Func("node.failed_requests", func() float64 { return float64(n.failedRequests) })

	rec := o.Rec()
	rec.Watch("node.lsq.outstanding", func() float64 {
		total := 0
		for _, t := range n.threads {
			total += t.outstanding
		}
		return float64(total)
	})
	rec.Watch("node.inflight_tx", func() float64 { return float64(n.resp.Pending()) })
	rec.Watch("node.deferred_tx", func() float64 { return float64(n.deferred.Len()) })
	rec.Watch("node.router.pending", func() float64 { return float64(n.router.Pending()) })
}

// Load installs the trace to replay. Threads beyond the core count are
// rejected: the architecture runs one thread per core (§3).
func (n *Node) Load(tr *trace.Trace) error {
	active := 0
	for _, th := range tr.Threads {
		if len(th) > 0 {
			active++
		}
	}
	if active > n.cfg.Cores {
		return fmt.Errorf("cpu: trace has %d active threads for %d cores", active, n.cfg.Cores)
	}
	n.threads = n.threads[:0]
	for _, th := range tr.Threads {
		ts := &threadState{events: th, issuedAt: make(map[uint16]sim.Cycle)}
		if len(th) > 0 {
			ts.gapLeft = uint32(th[0].Gap)
		}
		n.threads = append(n.threads, ts)
	}
	return nil
}

// Run replays the loaded trace to completion as the one-node machine,
// with no fabric, and returns the results. A run that stops making
// forward progress for Config.StallLimit cycles aborts with a
// *StallError carrying a diagnostic dump.
func (n *Node) Run() (*Result, error) {
	m := newMachine([]*Node{n}, n.chaos)
	m.obs = n.obs
	rs, err := m.Run()
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// tickChaos applies the node-side stressors the machine's engine rolled
// this cycle: transient vault unavailability and synthetic fence
// bursts. (Response-side stressors act through chaos.Filter in
// deliverResponses; submit freezes through SubmitFrozen in
// tickCoalescer.) A fence that meets a full router queue is dropped —
// the backpressure it found is already stress.
func (n *Node) tickChaos() {
	if v, until, ok := n.chaos.TakeVaultStall(); ok {
		n.dev.StallVault(v, until)
	}
	for n.chaos.TakeFence() {
		if !n.router.OfferLocal(memreq.RawRequest{Fence: true}) {
			break
		}
	}
}

// pumpRetries re-offers poisoned requests whose backoff expired. The
// router may refuse (queue full); the request then retries next cycle.
func (n *Node) pumpRetries(now sim.Cycle) {
	if len(n.retryPend) == 0 {
		return
	}
	keep := n.retryPend[:0]
	for _, p := range n.retryPend {
		if p.due > now || !n.router.OfferLocal(p.req) {
			keep = append(keep, p)
			continue
		}
		n.retriedRequests++
		n.progress++
		n.audit.Reissue(p.req, now)
	}
	n.retryPend = keep
}

// tickCores advances every thread by one cycle, rotating issue
// priority across them.
func (n *Node) tickCores(now sim.Cycle) {
	for i := range n.threads {
		t := n.threads[(i+n.issueRR)%len(n.threads)]
		n.tickThread(t, now)
	}
	if len(n.threads) > 0 {
		n.issueRR = (n.issueRR + 1) % len(n.threads)
	}
}

func (n *Node) tickThread(t *threadState, now sim.Cycle) {
	// Finish an SPM access in flight.
	if t.spmBusy != 0 {
		if now < t.spmBusy {
			return
		}
		t.spmBusy = 0
	}
	// Execute non-memory instructions one per cycle.
	if t.gapLeft > 0 {
		t.gapLeft--
		t.retired++
		n.progress++
		return
	}
	if t.pc >= len(t.events) {
		return
	}
	e := t.events[t.pc]

	// Scratchpad hits retire locally without touching the MAC.
	if e.Op.IsMemory() && addr.IsSPM(e.Addr) {
		t.spmBusy = now + n.cfg.SPMLatency
		t.retired++
		n.progress++
		n.spmAccesses++
		n.advance(t)
		return
	}

	if e.Op == trace.Fence {
		// A fence issues once its thread's own requests retire
		// (program order), then flows through the MAC to order the
		// global stream.
		if t.outstanding > 0 {
			t.stallFence++
			return
		}
		if !n.router.OfferLocal(memreq.RawRequest{Fence: true, Thread: e.Thread}) {
			t.stallRouter++
			return
		}
		t.retired++
		n.progress++
		n.advance(t)
		return
	}

	// Memory request: needs an LSQ slot and router space.
	if t.outstanding >= n.cfg.MaxOutstanding {
		t.stallLSQ++
		return
	}
	tag := t.nextTag
	req := memreq.RawRequest{
		Addr:   e.Addr,
		Size:   e.Size,
		Store:  e.Op == trace.Store,
		Atomic: e.Op == trace.Atomic,
		Thread: e.Thread,
		Tag:    tag,
	}
	if !n.router.OfferLocal(req) {
		t.stallRouter++
		return
	}
	t.nextTag++
	t.outstanding++
	t.issuedAt[tag] = now
	t.retired++
	n.progress++
	n.memRequests++
	if n.router.Dest(req.Addr) != n.cfg.Router.NodeID {
		n.remoteSent++
	}
	n.audit.Issue(req, now)
	if n.retry.Enabled() {
		n.inflightReq[reqKey{req.Thread, req.Tag}] = &reqAttempt{req: req}
	}
	n.advance(t)
}

// advance moves a thread to its next event, loading its gap count.
func (n *Node) advance(t *threadState) {
	t.pc++
	if t.pc < len(t.events) {
		t.gapLeft = uint32(t.events[t.pc].Gap)
	}
}

// tickCoalescer advances the coalescer and submits built transactions.
// While the device's in-flight tag space is exhausted, the coalescer is
// not ticked at all: the host interface backpressures, pops stall, and
// ARQ entries dwell — the feedback that raises coalescing opportunity
// exactly when the memory device is the bottleneck.
func (n *Node) tickCoalescer(now sim.Cycle) {
	if n.chaos.SubmitFrozen(now) {
		// Chaos-injected ARQ backpressure burst: the submit stage is
		// frozen, transactions back up inside the coalescer.
		n.sampleCoalescer()
		return
	}
	if !n.deferred.Empty() {
		n.submitDeferred(now)
		if !n.deferred.Empty() {
			// Still blocked on the target buffer: don't pull more
			// transactions out of the coalescer, or ordering breaks.
			n.sampleCoalescer()
			return
		}
	}
	if !n.dev.CanAccept() {
		n.sampleCoalescer()
		return
	}
	out := n.coal.Tick(now)
	for i := range out {
		if !n.submit(&out[i], now) {
			n.deferred.PushGrow(out[i])
		}
	}
}

// submit registers a built transaction in the target buffer, which
// keeps its own copy, and hands it to the device; false means the
// target buffer is full.
func (n *Node) submit(b *memreq.Built, now sim.Cycle) bool {
	tag, ok := n.resp.Register(b, now)
	if !ok {
		return false
	}
	n.bindTargets(b, tag, now)
	b.Span.MarkSubmit(uint64(now))
	n.dev.Submit(b.Req, now)
	n.progress++
	return true
}

// bindTargets records in the ledger which device transaction carries
// each raw request.
func (n *Node) bindTargets(b *memreq.Built, tag uint64, now sim.Cycle) {
	if n.audit == nil {
		return
	}
	for _, tgt := range b.Targets {
		if tgt.Cont {
			continue // the head half owns the lifecycle record
		}
		n.audit.Bind(tgt, tag, now)
	}
}

// sampleCoalescer records the MAC's ARQ occupancy on cycles where
// backpressure keeps Tick (and its own sampling) from running, so the
// occupancy mean covers every cycle — including the dwell phases where
// coalescing opportunity is highest.
func (n *Node) sampleCoalescer() {
	if n.mac != nil {
		n.mac.SampleOccupancy()
	}
}

// submitDeferred retries transactions previously refused by a full
// target buffer, in their original order.
func (n *Node) submitDeferred(now sim.Cycle) {
	for !n.deferred.Empty() && n.dev.CanAccept() && n.submit(n.deferred.Front(), now) {
		n.deferred.Pop()
	}
}

// deliverResponses routes completed device responses back to threads —
// the response router of §3.3. Malformed deliveries (duplicates,
// unknown tags, targets naming absent threads, retire underflows) are
// counted and survived rather than panicking: under fault injection
// they are expected events, and a simulator that dies on them cannot
// report what went wrong.
func (n *Node) deliverResponses(now sim.Cycle) {
	for _, resp := range n.chaos.Filter(now, n.dev.Tick(now)) {
		b, status := n.resp.Deliver(resp)
		switch status {
		case core.RespDuplicate, core.RespUnknown:
			continue // counted by the response router; nothing to retire
		}
		// Notify the coalescer first: MSHR-style designs fold
		// late-merged targets into b.Targets here. Poisoned
		// transactions complete too — their targets retire with an
		// error status, and fences must not wait on them forever.
		n.coal.Completed(b)
		n.progress++
		b.Span.MarkRespond(uint64(now))
		n.obs.Trace().Transaction(resp.Tag, b.Span)
		poisoned := status == core.RespPoisoned
		for _, tgt := range b.Targets {
			if n.fab != nil {
				if home := int(tgt.Thread) % n.cfg.Router.Nodes; home != n.cfg.Router.NodeID {
					n.returnRemote(home, tgt, b.Req.Kind, poisoned, now)
					continue
				}
			}
			n.retire(tgt, b.Req.Addr, b.Req.Data, poisoned, now)
		}
		if n.dupDeliver && !poisoned {
			// Test-only injected bug: replay the audit-visible
			// retirement, the double delivery the ledger must catch.
			for _, tgt := range b.Targets {
				if tgt.Cont {
					continue
				}
				n.audit.Credit(tgt, b.Req.Addr, b.Req.Data, now)
				n.audit.Retire(tgt, now)
			}
		}
		// Every target has been consumed (retired here or copied into
		// a response message) and the span recorded: hand the
		// transaction's target slab back to the coalescer and its
		// target-buffer slot back to the response router.
		n.coal.Recycle(b)
		n.resp.Recycle(b)
	}
}

// retire lands one target of a transaction (txAddr, txBytes) at its
// thread's home node, n: directly when n served it, or when the
// response arrives over the fabric.
func (n *Node) retire(tgt memreq.Target, txAddr uint64, txBytes uint32, poisoned bool, now sim.Cycle) {
	if tgt.Cont {
		// Continuation half of a window-split request: its data is
		// delivered, but the head half owns the request's one LSQ slot
		// and latency observation. A poisoned continuation is degraded
		// data loss — the head's transaction is independently live, so
		// the request cannot be re-issued without risking a double
		// delivery; the ledger waives its bytes.
		if poisoned {
			n.audit.Forgive(tgt, now)
		} else {
			n.audit.Credit(tgt, txAddr, txBytes, now)
		}
		return
	}
	i := int(tgt.Thread) / n.cfg.Router.Nodes
	if i >= len(n.threads) {
		n.misrouted++
		return
	}
	if poisoned && n.scheduleRetry(tgt, now) {
		// The LSQ slot stays occupied and issuedAt keeps the original
		// issue cycle: the request's latency spans its retries, and
		// fences keep waiting for it.
		return
	}
	t := n.threads[i]
	if t.outstanding <= 0 {
		n.retireUnderflows++
		return
	}
	t.outstanding--
	n.progress++
	if poisoned {
		n.failedRequests++
		n.audit.Fail(tgt, now)
	} else {
		n.audit.Credit(tgt, txAddr, txBytes, now)
		n.audit.Retire(tgt, now)
	}
	if n.retry.Enabled() {
		delete(n.inflightReq, reqKey{tgt.Thread, tgt.Tag})
	}
	if issue, ok := t.issuedAt[tgt.Tag]; ok {
		t.latency.Observe(uint64(now - issue))
		delete(t.issuedAt, tgt.Tag)
	}
}

// scheduleRetry queues a poisoned request for re-issue if the retry
// policy has budget left. It reports whether the retirement should be
// suppressed (the request lives on).
func (n *Node) scheduleRetry(tgt memreq.Target, now sim.Cycle) bool {
	if !n.retry.Enabled() {
		return false
	}
	a, ok := n.inflightReq[reqKey{tgt.Thread, tgt.Tag}]
	if !ok || a.attempts >= n.retry.MaxRetries {
		return false
	}
	a.attempts++
	n.retryPend = append(n.retryPend, retryPend{due: now + n.retry.Backoff, req: a.req})
	n.audit.Retry(tgt, now)
	return true
}

// drained reports whether all work has retired.
func (n *Node) drained() bool {
	if n.router.Pending() > 0 || n.coal.Pending() > 0 || n.coal.Inflight() > 0 ||
		n.dev.Pending() > 0 || !n.deferred.Empty() || !n.respOut.Empty() ||
		n.chaos.HeldResponses() > 0 || len(n.retryPend) > 0 {
		return false
	}
	for _, t := range n.threads {
		if !t.done() {
			return false
		}
	}
	return true
}

func (n *Node) result(cycles sim.Cycle) *Result {
	r := &Result{
		Cycles:           cycles,
		MemRequests:      n.memRequests,
		SPMAccesses:      n.spmAccesses,
		Coalescer:        *n.coal.Stats(),
		Device:           *n.dev.Stats(),
		Responses:        n.resp.Stats(),
		FailedRequests:   n.failedRequests,
		RetriedRequests:  n.retriedRequests,
		RetireUnderflows: n.retireUnderflows,
		Misrouted:        n.misrouted,
		RemoteSent:       n.remoteSent,
		RemoteServed:     n.remoteServed,
	}
	if n.audit.Enabled() {
		r.Audit = n.audit.Finish(cycles)
	}
	r.Chaos = n.chaos.Stats()
	if st := n.dev.CubeStats(); st != nil {
		snap := *st
		r.Cube = &snap
	}
	for _, t := range n.threads {
		r.Instructions += t.retired
		r.IssueStalls += t.stallLSQ + t.stallRouter + t.stallFence
		r.StallLSQ += t.stallLSQ
		r.StallRouter += t.stallRouter
		r.StallFence += t.stallFence
		r.RequestLatency.Merge(&t.latency)
	}
	if mac, ok := n.coal.(*core.MAC); ok {
		r.ARQOccupancy = mac.Aggregator().OccupancyMean()
	}
	r.RouterLocal, r.RouterGlobal, r.RouterRemote = n.router.Stats()
	return r
}

// StallError reports a simulation that stopped making forward
// progress: no instruction retired, no transaction submitted, and no
// response delivered for more than the watchdog's stall limit —
// typically a lost response or a resource leak. It carries the state
// a post-mortem needs instead of letting the run spin to MaxCycles.
// On a multi-node machine the counts are summed across nodes, the
// oldest transaction is the oldest on any node, and the dump has one
// line per node.
type StallError struct {
	// Cycle is when the watchdog fired.
	Cycle sim.Cycle
	// StallLimit is the configured no-progress bound.
	StallLimit sim.Cycle
	// OldestTxTag/OldestTxAge identify the longest-outstanding
	// transaction in a response router's target buffer (the prime
	// suspect for a lost response); OldestTxAge is 0 when every target
	// buffer is empty.
	OldestTxTag uint64
	OldestTxAge sim.Cycle
	// OldestTxAddr is that transaction's physical address.
	OldestTxAddr uint64
	// OutstandingTx and DeferredTx are target-buffer occupancy and
	// the holding-slot depth.
	OutstandingTx int
	DeferredTx    int
	// RouterPending, CoalescerPending, CoalescerInflight and
	// DevicePending are the queue/ARQ occupancies at the stall.
	RouterPending     int
	CoalescerPending  int
	CoalescerInflight int
	DevicePending     int
	// ThreadsBlocked counts threads with unretired work.
	ThreadsBlocked int
	// AuditInFlight is the ledger's count of requests without a
	// terminal outcome at the stall (0 when auditing is disabled).
	AuditInFlight int
	// AuditOldest is the ledger's oldest in-flight request rendered
	// with its holding component ("" when auditing is disabled or
	// nothing is in flight) — the causal diagnostic for the stall.
	AuditOldest string
	// Dump is the rendered diagnostic.
	Dump string
}

// Error formats the stall with its diagnostic dump.
func (e *StallError) Error() string {
	return fmt.Sprintf("cpu: no forward progress for %d cycles at cycle %d (lost response or resource leak?)\n%s",
		e.StallLimit, e.Cycle, e.Dump)
}

// stallReport adds the node's state at a stall into e and returns the
// node's diagnostic lines.
func (n *Node) stallReport(e *StallError, now sim.Cycle) []stats.KV {
	blocked := 0
	for _, t := range n.threads {
		if !t.done() {
			blocked++
		}
	}
	e.ThreadsBlocked += blocked
	e.RouterPending += n.router.Pending()
	e.CoalescerPending += n.coal.Pending()
	e.CoalescerInflight += n.coal.Inflight()
	e.DevicePending += n.dev.Pending()
	e.OutstandingTx += n.resp.Pending()
	e.DeferredTx += n.deferred.Len()
	kvs := []stats.KV{
		{Key: "threads blocked", Value: blocked},
		{Key: "request router pending", Value: n.router.Pending()},
		{Key: "coalescer pending (ARQ)", Value: n.coal.Pending()},
		{Key: "coalescer inflight", Value: n.coal.Inflight()},
		{Key: "device pending", Value: n.dev.Pending()},
		{Key: "target buffer outstanding", Value: n.resp.Pending()},
		{Key: "deferred transactions", Value: n.deferred.Len()},
	}
	if tag, registered, b, ok := n.resp.Oldest(); ok {
		age := now - registered
		if age >= e.OldestTxAge {
			e.OldestTxTag, e.OldestTxAge, e.OldestTxAddr = tag, age, b.Req.Addr
		}
		kvs = append(kvs,
			stats.KV{Key: "oldest in-flight tag", Value: tag},
			stats.KV{Key: "oldest in-flight age", Value: fmt.Sprintf("%d cycles", age)},
			stats.KV{Key: "oldest in-flight request", Value: fmt.Sprintf("%s 0x%x (%dB, %d targets)",
				b.Req.Kind, b.Req.Addr, b.Req.Data, len(b.Targets))},
		)
	}
	ds := n.dev.Stats()
	if ds.DroppedResponses > 0 || ds.PoisonedResponses > 0 || ds.TokenStalls > 0 {
		kvs = append(kvs,
			stats.KV{Key: "device dropped responses", Value: ds.DroppedResponses},
			stats.KV{Key: "device poisoned responses", Value: ds.PoisonedResponses},
			stats.KV{Key: "device token stalls", Value: ds.TokenStalls},
		)
	}
	if n.audit.Enabled() {
		e.AuditInFlight += n.audit.InFlight()
		counts := n.audit.HolderCounts()
		for _, s := range []audit.State{
			audit.StateRouted, audit.StateCoalescing,
			audit.StateInflight, audit.StateAwaitRetry,
		} {
			if counts[s] > 0 {
				kvs = append(kvs, stats.KV{
					Key:   fmt.Sprintf("audit: requests held by %s", s),
					Value: counts[s],
				})
			}
		}
		if o, ok := n.audit.Oldest(); ok {
			if e.AuditOldest == "" {
				e.AuditOldest = o.String()
			}
			kvs = append(kvs, stats.KV{Key: "audit: oldest in-flight request", Value: o.String()})
		}
	}
	return kvs
}
