package hmc

import (
	"fmt"

	"mac3d/internal/addr"
	"mac3d/internal/queue"
	"mac3d/internal/sim"
	"mac3d/internal/stats"
)

// Device is the HMC cube model. Submit requests in nondecreasing cycle
// order; pull completed responses with Tick.
type Device struct {
	cfg Config
	m   addr.Mapping

	// Per-link next-free cycles, one set per direction.
	reqLinkFree  []sim.Cycle
	respLinkFree []sim.Cycle
	nextLink     int

	// bankFree[v*BanksPerVault+b] is the cycle the bank precharges.
	bankFree []sim.Cycle
	// vaultFree[v] is when the vault controller can accept the next
	// request (FCFS issue, one request decoded per cycle).
	vaultFree []sim.Cycle
	// vaultPending[v] counts in-flight accesses per vault, bounded
	// by VaultQueueDepth via CanAccept.
	vaultPending []int

	// rowShift converts an address to its device row number
	// (log2 of RowBytes).
	rowShift uint

	// Open-page row-buffer state (nil under the closed-page policy):
	// rowOpen[b] reports whether bank b holds a row in its sense
	// amplifiers, openRow[b] which one.
	openPage bool
	rowOpen  []bool
	openRow  []uint64

	// cube is the routed intra-cube fabric runtime; nil for the ideal
	// topology, which keeps the direct-dispatch fast path below.
	cube *cubeState

	// pending orders completed responses by Done cycle; out is the
	// buffer Tick returns them in, reused from call to call.
	pending queue.Heap[Response]
	out     []Response

	// Fault-injection state (see faults.go / retry.go). All nil/zero
	// and never consulted when cfg.Faults is disabled.
	faultsOn  bool
	frng      *sim.RNG
	flink     []linkFaultState
	submitSeq uint64

	st Stats
}

// Stats accumulates device-level measurements for the harness.
type Stats struct {
	// Requests counts submitted transactions by size class.
	Requests uint64
	Reads    uint64
	Writes   uint64
	Atomics  uint64

	// BankConflicts counts accesses that waited on a busy bank.
	BankConflicts uint64
	// ConflictWaitCycles sums the cycles spent waiting on busy banks.
	ConflictWaitCycles uint64

	// DataBytes is the useful payload moved (request or response).
	DataBytes uint64
	// ControlBytes is the packet header/tail overhead moved.
	ControlBytes uint64
	// LinkBytes is DataBytes+ControlBytes (everything serialized).
	LinkBytes uint64

	// RequestsBySize histograms request payloads by FLIT count
	// (index = data FLITs, 1..64).
	RequestsBySize [MaxRequestBytes/addr.FlitBytes + 1]uint64

	// Latency is the device access latency distribution in cycles.
	Latency stats.Histogram

	// LastDone is the completion cycle of the latest-finishing
	// access seen so far (the memory-system makespan).
	LastDone sim.Cycle

	// Fault-path counters, all zero when fault injection is disabled.
	//
	// CRCErrors counts injected CRC corruptions (request and response
	// packets, every failed attempt).
	CRCErrors uint64
	// LinkRetries counts retransmissions performed by the link-retry
	// buffer.
	LinkRetries uint64
	// RetryCycles sums the extra cycles retransmission added to
	// packet delivery.
	RetryCycles uint64
	// PoisonedResponses counts responses returned with the poison
	// bit after a packet exhausted its retry budget.
	PoisonedResponses uint64
	// LinkFailures counts transient link failures (retrain events).
	LinkFailures uint64
	// LinksDisabled counts links permanently retired from service.
	LinksDisabled uint64
	// TokenStalls counts CanAccept rejections due to exhausted
	// flow-control credit.
	TokenStalls uint64
	// DroppedResponses counts responses deliberately lost by the
	// DropResponseEvery diagnostic hook.
	DroppedResponses uint64
	// VaultStallEvents counts transient vault-unavailability windows
	// applied via StallVault (chaos injection).
	VaultStallEvents uint64

	// Open-page row-buffer outcomes, all zero under the closed-page
	// policy. A RowHit found its row already open (no activate), a
	// RowMiss opened an idle bank's row (tRCD), a RowConflict evicted
	// another row first (tRP+tRCD).
	RowHits      uint64
	RowMisses    uint64
	RowConflicts uint64
}

// RowHitRate returns the fraction of open-page accesses that hit an
// already-open row, or 0 under the closed-page policy.
func (s *Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses + s.RowConflicts
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// BandwidthEfficiency returns Eq. 1 aggregated over all traffic:
// data / (data + control).
func (s *Stats) BandwidthEfficiency() float64 {
	total := s.DataBytes + s.ControlBytes
	if total == 0 {
		return 0
	}
	return float64(s.DataBytes) / float64(total)
}

// NewDevice builds a device from cfg, returning a wrapped
// configuration error for invalid input.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("hmc: invalid device config: %w", err)
	}
	cfg.Faults = cfg.Faults.withDefaults()
	cfg.Cube = cfg.Cube.WithDefaults()
	shift := uint(0)
	for 1<<shift != cfg.RowBytes {
		shift++
	}
	d := &Device{
		cfg:          cfg,
		m:            cfg.Mapping(),
		reqLinkFree:  make([]sim.Cycle, cfg.Links),
		respLinkFree: make([]sim.Cycle, cfg.Links),
		bankFree:     make([]sim.Cycle, cfg.Vaults*cfg.BanksPerVault),
		vaultFree:    make([]sim.Cycle, cfg.Vaults),
		vaultPending: make([]int, cfg.Vaults),
		rowShift:     shift,
		pending:      queue.NewHeap(func(a, b *Response) bool { return a.Done < b.Done }),
	}
	if cfg.Cube.PagePolicy == PageOpen {
		d.openPage = true
		d.rowOpen = make([]bool, cfg.Vaults*cfg.BanksPerVault)
		d.openRow = make([]uint64, cfg.Vaults*cfg.BanksPerVault)
	}
	if cfg.Cube.Routed() {
		cs, err := newCubeState(cfg, d.cubeSink)
		if err != nil {
			return nil, err
		}
		d.cube = cs
	}
	d.initFaults()
	return d, nil
}

// MustNewDevice builds a device from cfg, panicking on invalid
// configuration. Intended for tests and examples whose configuration
// is a compile-time constant.
func MustNewDevice(cfg Config) *Device {
	d, err := NewDevice(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// row maps an address to its device row number (RowBytes granularity).
func (d *Device) row(a uint64) uint64 { return (a & addr.PhysMask) >> d.rowShift }

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Stats returns a snapshot pointer of accumulated statistics. The
// caller must not retain it across Reset.
func (d *Device) Stats() *Stats { return &d.st }

// CanAccept reports whether the host interface will take another
// transaction — false while the in-flight tag space is exhausted or
// any vault queue is at capacity. The MAC stops popping while this is
// false (host-side backpressure).
func (d *Device) CanAccept() bool {
	if d.Pending() >= d.cfg.MaxInflight {
		return false
	}
	for _, p := range d.vaultPending {
		if p >= d.cfg.VaultQueueDepth {
			return false
		}
	}
	if d.faultsOn && d.cfg.Faults.LinkTokens > 0 && !d.anyTokens() {
		d.st.TokenStalls++
		return false
	}
	return true
}

// StallVault makes vault v transiently unavailable until the given
// cycle: the vault controller accepts no new issue before then (models
// refresh overruns, repair cycles, or chaos-injected unavailability —
// see internal/chaos). Already-issued accesses are unaffected. Pushing
// the horizon only forward keeps the call idempotent and monotonic;
// out-of-range vaults are ignored so callers can drive heterogeneous
// device configurations blindly.
func (d *Device) StallVault(v int, until sim.Cycle) {
	if v < 0 || v >= len(d.vaultFree) {
		return
	}
	if until > d.vaultFree[v] {
		d.vaultFree[v] = until
		d.st.VaultStallEvents++
	}
}

// Submit schedules req starting at cycle now. Requests must be
// submitted in nondecreasing now order; Submit panics otherwise, since
// that indicates a broken driver rather than a recoverable condition.
func (d *Device) Submit(req Request, now sim.Cycle) {
	req.Normalize()
	// Devices with coarser minimum bursts (HBM: 32B) round small
	// transactions up to their access granularity.
	if req.Data < d.cfg.MinAccessBytes {
		req.Data = d.cfg.MinAccessBytes
	}

	// Account traffic and request mix.
	d.st.Requests++
	switch req.Kind {
	case Read:
		d.st.Reads++
	case Write:
		d.st.Writes++
	case AtomicOp:
		d.st.Atomics++
	}
	flits := req.DataFlits()
	d.st.RequestsBySize[flits]++
	d.st.DataBytes += uint64(flits) * addr.FlitBytes
	d.st.ControlBytes += req.ControlBytes()
	d.st.LinkBytes += req.TotalBytes()

	// 1. Request link serialization: the packet occupies one link.
	link := d.pickLink(now)
	reqSer := sim.Cycle(req.RequestFlits()) * d.cfg.FlitCycles
	reqStart := max(now, d.reqLinkFree[link])
	drop := false
	if d.faultsOn {
		d.submitSeq++
		f := &d.cfg.Faults
		drop = f.DropResponseEvery > 0 && d.submitSeq%f.DropResponseEvery == 0
		d.takeToken(link)
		reqStart = d.rollLinkFailure(link, reqStart)
		var delivered bool
		reqStart, delivered = d.transmit(reqStart, reqSer)
		if !delivered {
			// Retry budget exhausted on the request path: the
			// access never reaches a vault; the host sees a
			// poisoned (error) response after the final attempt.
			d.reqLinkFree[link] = reqStart + reqSer
			d.poisonResponse(req, link, now, reqStart+reqSer, drop)
			return
		}
	}
	d.reqLinkFree[link] = reqStart + reqSer

	// 2. Cross the cube to the vault. With a routed cube fabric the
	// request enters the interconnect once the external link finishes
	// serializing it; everything downstream happens in cubeDeliver as
	// the fabric moves flits.
	row := d.row(req.Addr)
	vault := d.m.Vault(row)
	if d.cube != nil {
		d.cubeSubmit(req, link, vault, reqStart+reqSer, now, drop)
		return
	}

	// Ideal cube: the switch crossing is the fixed ReqPipeline, plus
	// any quadrant-locality penalty.
	quad := d.quadPenalty(link, vault)
	arrive := reqStart + reqSer + quad + d.cfg.ReqPipeline

	// 3. Vault controller FCFS issue (one decode per cycle),
	// pushed past any refresh window in progress.
	issue := max(arrive, d.vaultFree[vault])
	issue = d.afterRefresh(vault, issue)
	d.vaultFree[vault] = issue + 1
	d.vaultPending[vault]++

	// 4. Bank access under the configured page policy.
	dataReady, conflicted := d.bankAccess(req, issue)

	// 5. Response serialization and return pipeline.
	respSer := sim.Cycle(req.ResponseFlits()) * d.cfg.FlitCycles
	respStart := max(dataReady+quad, d.respLinkFree[link])
	poisoned := false
	if d.faultsOn {
		var delivered bool
		respStart, delivered = d.transmit(respStart, respSer)
		// A response that exhausts its retries is delivered anyway,
		// with the poison bit set: the host must not use the data.
		poisoned = !delivered
	}
	d.respLinkFree[link] = respStart + respSer
	done := respStart + respSer + d.cfg.RespPipeline

	d.st.Latency.Observe(uint64(done - now))
	if done > d.st.LastDone {
		d.st.LastDone = done
	}

	if drop {
		// Lost response: the access happened, but the host never
		// hears back. The vault-queue slot and link token leak —
		// exactly how a real lost packet starves its submitter.
		d.st.DroppedResponses++
		return
	}
	if poisoned {
		d.st.PoisonedResponses++
	}

	d.pending.Push(Response{
		Tag:        req.Tag,
		Addr:       req.Addr,
		Kind:       req.Kind,
		Data:       req.Data,
		Submitted:  now,
		Done:       done,
		Conflicted: conflicted,
		Poisoned:   poisoned,
		vault:      vault,
		link:       link,
	})
}

// bankAccess times one DRAM access issued at cycle issue: bank-conflict
// wait, then the configured page policy's row handling. It returns the
// cycle the data is ready at the vault controller and whether the
// access waited on a busy bank, and advances the bank's busy horizon.
func (d *Device) bankAccess(req Request, issue sim.Cycle) (dataReady sim.Cycle, conflicted bool) {
	row := d.row(req.Addr)
	bank := d.m.FlatBank(row)
	conflicted = d.bankFree[bank] > issue
	start := issue
	if conflicted {
		d.st.BankConflicts++
		d.st.ConflictWaitCycles += uint64(d.bankFree[bank] - issue)
		start = d.bankFree[bank]
	}
	burst := sim.Cycle((req.Data + d.cfg.BurstBytesPerCycle - 1) / d.cfg.BurstBytesPerCycle)
	if !d.openPage {
		// Closed page: every access pays activate up front and
		// precharge on the way out (part of bank occupancy).
		d.bankFree[bank] = start + d.cfg.BankOccupancy(req.Data)
		return start + d.cfg.TRCD + d.cfg.TCL + burst, conflicted
	}
	// Open page: the row stays latched in the sense amplifiers after
	// the access, so the next cost depends on what the bank holds.
	var open sim.Cycle
	switch {
	case !d.rowOpen[bank]:
		open = d.cfg.TRCD
		d.st.RowMisses++
	case d.openRow[bank] == row:
		open = 0
		d.st.RowHits++
	default:
		open = d.cfg.TRP + d.cfg.TRCD
		d.st.RowConflicts++
	}
	// A request wider than the device row walks extra rows, each a
	// precharge+activate beyond the first.
	extra := sim.Cycle((req.Data + d.cfg.RowBytes - 1) / d.cfg.RowBytes)
	if extra > 0 {
		extra--
	}
	open += extra * (d.cfg.TRP + d.cfg.TRCD)
	dataReady = start + open + d.cfg.TCL + burst
	// No trailing precharge: the bank frees as soon as the burst
	// drains, and the last row touched stays open.
	d.bankFree[bank] = dataReady
	d.rowOpen[bank] = true
	d.openRow[bank] = row + uint64(extra)
	return dataReady, conflicted
}

// pushResponse enqueues a completed response for Tick to deliver.
func (d *Device) pushResponse(r Response) { d.pending.Push(r) }

// poisonResponse emits the error response for a request abandoned on
// the request path: no vault or bank was touched; the host hears a
// header-only error packet once the retry budget is exhausted.
func (d *Device) poisonResponse(req Request, link int, now, lastAttempt sim.Cycle, drop bool) {
	errSer := d.cfg.FlitCycles // header-only error response
	respStart := max(lastAttempt+d.cfg.ReqPipeline, d.respLinkFree[link])
	d.respLinkFree[link] = respStart + errSer
	done := respStart + errSer + d.cfg.RespPipeline

	d.st.Latency.Observe(uint64(done - now))
	if done > d.st.LastDone {
		d.st.LastDone = done
	}
	if drop {
		d.st.DroppedResponses++
		return
	}
	d.st.PoisonedResponses++
	d.pending.Push(Response{
		Tag:       req.Tag,
		Addr:      req.Addr,
		Kind:      req.Kind,
		Data:      req.Data,
		Submitted: now,
		Done:      done,
		Poisoned:  true,
		vault:     -1,
		link:      link,
	})
}

// afterRefresh returns the earliest cycle at or after t at which the
// vault is not blocked by a refresh window. Vault windows are
// staggered across the refresh interval so the cube never stalls
// globally.
func (d *Device) afterRefresh(vault int, t sim.Cycle) sim.Cycle {
	p := d.cfg.RefreshInterval
	if p == 0 {
		return t
	}
	offset := p * sim.Cycle(vault) / sim.Cycle(d.cfg.Vaults)
	// Position within the current period, relative to this vault's
	// window start.
	var phase sim.Cycle
	if t >= offset {
		phase = (t - offset) % p
	} else {
		phase = (t + p - offset%p) % p
	}
	if phase < d.cfg.RefreshDuration {
		return t + (d.cfg.RefreshDuration - phase)
	}
	return t
}

// pickLink chooses the link for a request. Links are selected
// round-robin, preferring an idle link when the round-robin choice is
// still serializing an earlier packet. Under fault injection the
// choice additionally respects disabled links and flow-control credit.
func (d *Device) pickLink(now sim.Cycle) int {
	if d.faultsOn {
		return d.pickFaultLink(now)
	}
	best := d.nextLink
	d.nextLink = (d.nextLink + 1) % d.cfg.Links
	if d.reqLinkFree[best] <= now {
		return best
	}
	for i, free := range d.reqLinkFree {
		if free <= now {
			return i
		}
		if free < d.reqLinkFree[best] {
			best = i
		}
	}
	return best
}

// Tick returns all responses completed at or before now, in completion
// order. The returned slice is the device's own buffer: it is valid
// until the next Tick, which overwrites it. A caller that keeps
// responses past that must copy them.
func (d *Device) Tick(now sim.Cycle) []Response {
	if d.cube != nil {
		d.cubeAdvance(now)
	}
	d.out = d.out[:0]
	for d.pending.Len() > 0 && d.pending.Min().Done <= now {
		r := d.pending.Pop()
		if r.vault >= 0 {
			d.vaultPending[r.vault]--
		}
		if d.faultsOn {
			d.releaseToken(r.link)
		}
		d.out = append(d.out, r)
	}
	return d.out
}

// Pending returns the number of in-flight accesses, including any
// still crossing the intra-cube fabric.
func (d *Device) Pending() int {
	n := d.pending.Len()
	if d.cube != nil {
		n += d.cube.inFlight
	}
	return n
}

// Drain returns the cycle by which every in-flight access completes.
func (d *Device) Drain() sim.Cycle { return d.st.LastDone }

// Reset clears all timing state and statistics.
func (d *Device) Reset() {
	for i := range d.reqLinkFree {
		d.reqLinkFree[i], d.respLinkFree[i] = 0, 0
	}
	for i := range d.bankFree {
		d.bankFree[i] = 0
	}
	for i := range d.vaultFree {
		d.vaultFree[i] = 0
		d.vaultPending[i] = 0
	}
	for i := range d.rowOpen {
		d.rowOpen[i] = false
		d.openRow[i] = 0
	}
	d.pending.Reset()
	d.nextLink = 0
	d.st = Stats{}
	if d.cube != nil {
		// Rebuild the fabric from the already-validated config; this
		// cannot fail after NewDevice accepted it.
		cs, err := newCubeState(d.cfg, d.cubeSink)
		if err != nil {
			panic(err)
		}
		d.cube = cs
	}
	d.initFaults()
}

// String summarizes the device for diagnostics.
func (d *Device) String() string {
	return fmt.Sprintf("hmc.Device{links:%d vaults:%d banks:%d inflight:%d}",
		d.cfg.Links, d.cfg.Vaults, d.cfg.Vaults*d.cfg.BanksPerVault, d.pending.Len())
}
