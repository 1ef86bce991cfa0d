// Package memreq defines the contract between request producers (the
// multicore node model), memory coalescers (MAC and the baseline
// designs), and the HMC device model: the raw request representation,
// the per-request target information used by the response router, the
// built-transaction type, and the Coalescer interface with its shared
// statistics.
//
// Keeping these types in a leaf package lets the MAC implementation
// (internal/core) and the baselines (internal/coalesce) be swapped
// freely inside the node model and the experiment harness.
package memreq

import (
	"fmt"

	"mac3d/internal/hmc"
	"mac3d/internal/obs"
	"mac3d/internal/sim"
	"mac3d/internal/stats"
)

// Target is the information MAC buffers per merged raw request so the
// response router can deliver data back to the originating thread
// (paper §4.1.1: 2B thread id + 2B transaction tag + 4b FLIT id,
// 4.5B per target in hardware at the paper's 256B window).
type Target struct {
	// Thread is the issuing hardware thread id.
	Thread uint16
	// Tag is the per-thread transaction tag (e.g. LSQ slot).
	Tag uint16
	// Flit is the first requested FLIT id within the coalescing
	// window: 0–15 for the paper's 256B window, up to 31 (512B) or 63
	// (1KB) under the §4.3 wide windows. The hardware field widens
	// with the window — see TargetBytesFor.
	Flit uint8
	// Cont marks the continuation half of a raw request that was
	// split at a coalescing-window boundary. The response router must
	// deliver it (its FLITs are part of the transaction) but must not
	// retire an LSQ slot or observe latency for it: the head half
	// carries the request's single retirement.
	Cont bool
}

// Validate reports whether the target is representable in the
// hardware target buffer of a coalescer with the given window size
// (0 means the paper's 256B window).
func (t Target) Validate(windowBytes uint32) error {
	if windowBytes == 0 {
		windowBytes = 256
	}
	if flits := windowBytes / 16; uint32(t.Flit) >= flits {
		return fmt.Errorf("memreq: target FLIT id %d out of range for %dB window (0–%d)",
			t.Flit, windowBytes, flits-1)
	}
	return nil
}

// TargetBytes is the hardware size of one buffered target at the
// paper's 256B coalescing window (§4.1.1: 2B thread + 2B tag + 4b
// FLIT id). For wide windows use TargetBytesFor.
const TargetBytes = 4.5

// TargetBytesFor returns the hardware size of one buffered target for
// a coalescing window: the FLIT-id field grows from 4 bits (256B, 16
// FLITs) to 5 (512B) or 6 (1KB) bits. 0 means 256.
func TargetBytesFor(windowBytes uint32) float64 {
	switch windowBytes {
	case 0, 256:
		return 4.5 // 4-bit FLIT id
	case 512:
		return 4.625 // 5-bit FLIT id
	case 1024:
		return 4.75 // 6-bit FLIT id
	default:
		panic(fmt.Sprintf("memreq: no target layout for %dB window", windowBytes))
	}
}

// RawRequest is one memory operation as it leaves a core.
type RawRequest struct {
	// Addr is the physical address.
	Addr uint64
	// Size is the access size in bytes (1–16); 0 means 1.
	Size uint8
	// Store distinguishes writes from reads.
	Store bool
	// Atomic marks read-modify-write operations, which are never
	// coalesced (paper §4.1.2).
	Atomic bool
	// Fence marks a memory fence: it carries no address and forces
	// the aggregator to stop merging until it drains (paper §4.1).
	Fence bool
	// Thread and Tag form the response-routing target.
	Thread uint16
	Tag    uint16
}

// Built is one memory transaction produced by a coalescer, ready for
// the device. Req.Tag is assigned by the driver that owns the
// outstanding-transaction table.
type Built struct {
	// Req is the device transaction.
	Req hmc.Request
	// Targets lists every raw request satisfied by this transaction.
	// It is empty only for transactions synthesized by a coalescer
	// for its own purposes (the MemCache frontend's dirty-line
	// writebacks are the one included case); drivers must tolerate
	// zero-target transactions by completing them without retiring
	// any raw request.
	Targets []Target
	// Bypassed reports that the transaction skipped the request
	// builder (B bit set, or an atomic routed directly).
	Bypassed bool
	// Handle is coalescer-private bookkeeping (e.g. the MSHR entry
	// behind the transaction). Drivers must preserve it and pass the
	// same Built back to Completed; they must not interpret it.
	Handle any
	// Span carries the transaction's observability lifecycle stamps;
	// nil unless tracing is enabled. Drivers stamp Submit/Respond and
	// hand the span to the tracer on delivery.
	Span *obs.TxSpan
}

// Coalescer is a processor-side memory coalescing unit.
//
// The driving model is cycle-stepped: the driver calls Push to offer at
// most one raw request per call (a rejected Push models backpressure
// and must be retried), calls Tick once per cycle to collect built
// transactions, calls Completed when the device response for a built
// transaction has been routed back — coalescers use the outstanding
// count to order memory fences — and hands each fully consumed Built
// back through Recycle.
type Coalescer interface {
	// Push offers one raw request at cycle now. It reports whether
	// the request was accepted.
	Push(r RawRequest, now sim.Cycle) bool
	// Tick advances internal pipelines and returns the transactions
	// that completed building this cycle, in issue order. The slice is
	// the coalescer's own buffer, valid until the next Tick: a driver
	// that keeps a Built past that copies it out (the Built value, not
	// its Targets, which stay valid until Recycle).
	Tick(now sim.Cycle) []Built
	// Completed notifies the coalescer that one previously emitted
	// transaction has fully completed (response routed).
	Completed(b *Built)
	// Pending returns the number of raw requests accepted but not
	// yet emitted in a Built transaction, plus queued fences.
	Pending() int
	// Inflight returns the number of emitted transactions whose
	// completion has not been signalled.
	Inflight() int
	// Stats returns the accumulated coalescing statistics.
	Stats() *Stats
	// Reset restores the coalescer to its initial empty state.
	Reset()
	Recycler
}

// Recycler takes back a Built the driver is completely done with — the
// response has been delivered and every target consumed — so its
// target slab can be reused, keeping the build/pop path
// allocation-free. A driver that retains Builts simply never calls it.
// After the call the Built and its Targets slice must not be touched.
type Recycler interface {
	Recycle(b *Built)
}

// Stats is the measurement set shared by every coalescer design.
type Stats struct {
	// RawRequests counts raw memory requests accepted (excluding
	// fences, which are control operations).
	RawRequests uint64
	RawLoads    uint64
	RawStores   uint64
	RawAtomics  uint64
	Fences      uint64

	// Transactions counts built device transactions.
	Transactions uint64
	// Bypassed counts transactions that skipped the builder.
	Bypassed uint64
	// BuiltBySizeBytes histograms builder output by transaction
	// payload (key: 16, 64, 128, 256).
	BuiltBySizeBytes map[uint32]uint64

	// TargetsPerTx observes the number of raw requests merged into
	// each emitted transaction (Fig. 15's targets-per-entry).
	TargetsPerTx stats.Histogram

	// PushRejects counts Push calls refused due to internal
	// backpressure.
	PushRejects uint64

	// Warp carries the SIMT warp-lane frontend's extra measurements;
	// nil for every other design. It is a pointer so the value copy a
	// driver takes of Stats still shares the frontend's counters.
	Warp *WarpStats
	// MemCache carries the die-stacked memory+cache frontend's extra
	// measurements; nil for every other design.
	MemCache *MemCacheStats
}

// WarpStats is the measurement set specific to the SIMT warp-lane
// coalescer frontend.
type WarpStats struct {
	// WarpsFormed counts warps gathered from the lane queue.
	WarpsFormed uint64
	// WarpsSuspended counts warps that finished dispatching their
	// mask groups and were suspended awaiting device responses.
	WarpsSuspended uint64
	// SameAddrTx counts transactions whose mask group collapsed to a
	// single address shared by every participating lane.
	SameAddrTx uint64
	// SameBlockTx counts transactions that fetched a whole lane block
	// for a mask group spanning multiple addresses.
	SameBlockTx uint64
	// MasksPerWarp observes the number of mask-group transactions each
	// warp needed before suspending (1 = fully convergent warp).
	MasksPerWarp stats.Histogram
}

// MemCacheStats is the measurement set specific to the die-stacked
// memory+cache frontend.
type MemCacheStats struct {
	// Hits counts cache-region requests served from the stacked cache.
	Hits uint64
	// Misses counts cache-region requests that allocated a line fill.
	Misses uint64
	// MergedMisses counts cache-region requests merged onto an
	// in-flight fill for the same line (hit-under-miss).
	MergedMisses uint64
	// Writebacks counts dirty-line eviction transactions emitted.
	Writebacks uint64
	// DirectAccesses counts requests routed to the directly addressed
	// partition of the stacked DRAM.
	DirectAccesses uint64
}

// HitRate returns the stacked-cache hit fraction over demand accesses
// that probed the tags (merged misses count as misses: they waited on
// fill traffic).
func (s *MemCacheStats) HitRate() float64 {
	demand := s.Hits + s.Misses + s.MergedMisses
	if demand == 0 {
		return 0
	}
	return float64(s.Hits) / float64(demand)
}

// NewStats returns an initialized Stats.
func NewStats() *Stats {
	return &Stats{BuiltBySizeBytes: make(map[uint32]uint64)}
}

// CoalescingEfficiency returns the paper's headline metric, the
// fraction of raw requests eliminated by coalescing:
// 1 − transactions/raw (see DESIGN.md on Eq. 3's sign).
func (s *Stats) CoalescingEfficiency() float64 {
	if s.RawRequests == 0 {
		return 0
	}
	return 1 - float64(s.Transactions)/float64(s.RawRequests)
}

// AvgTargetsPerTx returns the mean number of raw requests per emitted
// transaction (Fig. 15).
func (s *Stats) AvgTargetsPerTx() float64 { return s.TargetsPerTx.Mean() }

// String renders a one-line summary.
func (s *Stats) String() string {
	return fmt.Sprintf("raw=%d tx=%d bypassed=%d eff=%.2f%% tgts/tx=%.2f",
		s.RawRequests, s.Transactions, s.Bypassed,
		100*s.CoalescingEfficiency(), s.AvgTargetsPerTx())
}

// RetryPolicy bounds requester-side recovery from poisoned
// completions: a response whose link-level retry budget was exhausted
// (hmc poison semantics) is re-issued by the originating node up to
// MaxRetries times, each attempt delayed by Backoff cycles. The zero
// value disables recovery — poisoned completions fail the request, the
// pre-existing behaviour.
type RetryPolicy struct {
	// MaxRetries is the number of re-issues allowed per raw request.
	MaxRetries int
	// Backoff is the delay before each re-issue, in cycles.
	Backoff sim.Cycle
}

// Enabled reports whether the policy allows at least one retry.
func (p RetryPolicy) Enabled() bool { return p.MaxRetries > 0 }

// Validate rejects nonsensical policies. (Backoff is unsigned; the
// facade rejects negative user input before it gets here.)
func (p RetryPolicy) Validate() error {
	if p.MaxRetries < 0 {
		return fmt.Errorf("memreq: RetryPolicy.MaxRetries %d is negative", p.MaxRetries)
	}
	return nil
}
