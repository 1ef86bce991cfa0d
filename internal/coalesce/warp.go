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

// WarpConfig parameterizes the SIMT warp-lane coalescer.
type WarpConfig struct {
	// Lanes is the warp width: the number of raw requests gathered
	// into one warp. Must be a power of two in [4, 64].
	Lanes int
	// MaxWarps bounds warps alive at once (dispatching or suspended
	// awaiting responses); a full scoreboard stalls gathering.
	MaxWarps int
	// QueueDepth sizes the input FIFO.
	QueueDepth int
}

// DefaultWarpConfig returns an 8-lane, 4-warp configuration: one warp
// per hardware thread of the paper's 8-core node, with the lane block
// (4B x 8 lanes = 32B) spanning two FLITs.
func DefaultWarpConfig() WarpConfig {
	return WarpConfig{Lanes: 8, MaxWarps: 4, QueueDepth: 64}
}

// Validate reports the first configuration error, or nil.
func (c WarpConfig) Validate() error {
	switch {
	case c.Lanes < 4 || c.Lanes > 64 || c.Lanes&(c.Lanes-1) != 0:
		return fmt.Errorf("coalesce: Warp Lanes must be a power of two in [4, 64], got %d", c.Lanes)
	case c.MaxWarps <= 0 || c.MaxWarps > 256:
		return fmt.Errorf("coalesce: Warp MaxWarps must be in [1, 256], got %d", c.MaxWarps)
	case c.QueueDepth <= 0:
		return fmt.Errorf("coalesce: Warp QueueDepth must be positive, got %d", c.QueueDepth)
	}
	return nil
}

// warpLane is one gathered raw request and its service state.
type warpLane struct {
	req    memreq.RawRequest
	served bool
}

// warpState is one in-flight warp: gathered lanes, the count not yet
// covered by an emitted mask group, and the transactions still awaiting
// device responses. A warp whose lanes are all served is "suspended"
// until outstanding reaches zero, which frees its scoreboard slot
// (resume, in SIMT terms: the threads may proceed).
type warpState struct {
	lanes       []warpLane
	unserved    int
	outstanding int
	masks       uint64
	store       bool
	dispatched  bool
}

// Warp is a SIMT-style warp-lane coalescer, after the RISC-V GPU
// memory units: consecutive raw requests of the same kind gather into a
// warp of up to Lanes lanes; each cycle a leader lane is picked among
// the unserved lanes and every lane in the leader's block joins its
// mask group. If all grouped lanes carry the leader's exact address the
// group is served by one narrow SameAddress transaction; otherwise one
// SameBlock transaction fetches the whole lane block. The warp suspends
// once every lane is covered and resumes (freeing its slot) when the
// last of its transactions completes.
//
// Against MAC this models the GPU answer to the same problem: spatial
// grouping is limited to what one warp exhibits at one instant, with no
// cross-warp window — divergent warps pay one transaction per distinct
// block.
type Warp struct {
	frontend
	cfg        WarpConfig
	logLanes   uint
	blockShift uint

	cur  *warpState
	live int

	// warps pools retired warpState values (lane arrays survive).
	warps []*warpState
}

var _ memreq.Coalescer = (*Warp)(nil)
var _ obs.Attacher = (*Warp)(nil)

// NewWarp builds the SIMT frontend, returning an error on bad config.
func NewWarp(cfg WarpConfig) (*Warp, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	logLanes := uint(bits.TrailingZeros(uint(cfg.Lanes)))
	w := &Warp{
		frontend: newFrontend(cfg.QueueDepth, cfg.Lanes),
		cfg:      cfg,
		logLanes: logLanes,
		// The lane block is Lanes words of 4 bytes, the exemplar's
		// addr >> (LOG_LANES+2); Lanes >= 4 keeps it FLIT-aligned.
		blockShift: logLanes + 2,
	}
	w.Stats().Warp = &memreq.WarpStats{}
	return w, nil
}

// blockBytes returns the lane-block span in bytes.
func (w *Warp) blockBytes() uint32 { return uint32(1) << w.blockShift }

// takeWarp returns a pooled (or fresh) empty warpState.
func (w *Warp) takeWarp() *warpState {
	if n := len(w.warps); n > 0 {
		ws := w.warps[n-1]
		w.warps = w.warps[:n-1]
		ws.lanes = ws.lanes[:0]
		ws.unserved, ws.outstanding, ws.masks = 0, 0, 0
		ws.store, ws.dispatched = false, false
		return ws
	}
	return &warpState{lanes: make([]warpLane, 0, w.cfg.Lanes)}
}

// Tick emits at most one mask-group transaction per cycle: it first
// serves the warp being dispatched, gathering a new warp from the queue
// when none is active and the scoreboard has a free slot.
func (w *Warp) Tick(sim.Cycle) []memreq.Built {
	if w.cur == nil {
		ok, bypass := w.gather()
		if bypass != nil {
			return bypass
		}
		if !ok {
			return nil
		}
	}
	return w.emitMaskGroup()
}

// gather forms the next warp from the queue head. It returns ok=true
// when a warp was gathered into w.cur; a non-nil Built slice means the
// head was an atomic served by a bypass transaction instead.
func (w *Warp) gather() (ok bool, bypass []memreq.Built) {
	if w.live >= w.cfg.MaxWarps {
		return false, nil // scoreboard full: stall until a warp resumes
	}
	head, okHead := w.head()
	if !okHead {
		return false, nil
	}
	if head.Atomic {
		w.q.Pop()
		b := w.single(head, true)
		w.Stats().TargetsPerTx.Observe(1)
		return false, w.emit(b)
	}

	ws := w.takeWarp()
	ws.store = head.Store
	for len(ws.lanes) < w.cfg.Lanes {
		r, okNext := w.q.Peek()
		if !okNext || r.Fence || r.Atomic || r.Store != ws.store {
			break // a warp executes one instruction: same kind only
		}
		w.q.Pop()
		ws.lanes = append(ws.lanes, warpLane{req: r})
	}
	ws.unserved = len(ws.lanes)
	w.cur = ws
	w.live++
	w.Stats().Warp.WarpsFormed++
	return true, nil
}

// emitMaskGroup serves one mask group of the active warp: the leader is
// the first unserved lane, the group is every unserved lane in the
// leader's block, and the transaction is narrow (SameAddress) when all
// grouped lanes carry the leader's exact address, else the whole block.
func (w *Warp) emitMaskGroup() []memreq.Built {
	ws := w.cur
	if ws == nil || ws.unserved == 0 {
		return nil
	}
	var leader *memreq.RawRequest
	for i := range ws.lanes {
		if !ws.lanes[i].served {
			leader = &ws.lanes[i].req
			break
		}
	}
	leaderBlock := leader.Addr >> w.blockShift
	sameAddr := true
	var targets []memreq.Target
	end := uint64(0)
	for i := range ws.lanes {
		ln := &ws.lanes[i]
		if ln.served || ln.req.Addr>>w.blockShift != leaderBlock {
			continue
		}
		if ln.req.Addr != leader.Addr {
			sameAddr = false
		}
		ln.served = true
		ws.unserved--
		if targets == nil {
			targets = w.Take(ln.req.Target())
		} else {
			targets = append(targets, ln.req.Target())
		}
		if e := ln.req.Addr + uint64(ln.req.Size); e > end {
			end = e
		}
	}

	var base uint64
	var size uint32
	if sameAddr {
		// One narrow access serves every lane: FLIT-align the shared
		// address, spanning into the next FLIT when the access does.
		base = leader.Addr &^ uint64(addr.FlitMask)
		size = uint32(end - base)
		if size == 0 {
			size = 1
		}
		w.Stats().Warp.SameAddrTx++
	} else {
		// Divergent group: fetch the whole lane block, extended when a
		// lane's access runs past the block end so every target's FLIT
		// span is covered.
		base = leaderBlock << w.blockShift
		size = w.blockBytes()
		if over := uint32(end - base); over > size {
			size = over
		}
		w.Stats().Warp.SameBlockTx++
	}
	if rem := size % addr.FlitBytes; rem != 0 {
		size += addr.FlitBytes - rem
	}

	kind := hmc.Read
	if ws.store {
		kind = hmc.Write
	}
	b := memreq.Built{
		Req:     hmc.Request{Kind: kind, Addr: base, Data: size},
		Targets: targets,
		Handle:  ws,
	}
	ws.outstanding++
	ws.masks++
	w.CountEmit(&b)
	st := w.Stats()
	st.TargetsPerTx.Observe(uint64(len(targets)))
	if ws.unserved == 0 {
		// Every lane covered: the warp suspends awaiting responses.
		ws.dispatched = true
		st.Warp.WarpsSuspended++
		st.Warp.MasksPerWarp.Observe(ws.masks)
		w.cur = nil
	}
	return w.emit(b)
}

// Completed signals one transaction done; the last completion of a
// fully dispatched warp resumes it, freeing the scoreboard slot.
func (w *Warp) Completed(b *memreq.Built) {
	w.frontend.Completed(b)
	ws, ok := b.Handle.(*warpState)
	if !ok || ws == nil {
		return // atomic bypass: no warp attached
	}
	if ws.outstanding == 0 {
		panic("coalesce: Warp.Completed with idle warp handle")
	}
	ws.outstanding--
	if ws.dispatched && ws.outstanding == 0 {
		w.live--
		w.warps = append(w.warps, ws)
	}
}

// Pending returns queued raw requests plus unserved gathered lanes
// (including a held fence).
func (w *Warp) Pending() int {
	p := w.frontend.Pending()
	if w.cur != nil {
		p += w.cur.unserved
	}
	return p
}

// Reset restores the initial empty state (the pools survive).
func (w *Warp) Reset() {
	w.frontend.Reset()
	if w.cur != nil {
		w.warps = append(w.warps, w.cur)
		w.cur = nil
	}
	w.live = 0
	w.Stats().Warp = &memreq.WarpStats{}
}

// AttachObs registers the warp frontend's scoreboard and queue state
// into a run's observability layer.
func (w *Warp) AttachObs(o *obs.Obs) {
	reg := o.Reg()
	reg.Func("warp.live", func() float64 { return float64(w.live) })
	reg.Func("warp.queue", func() float64 { return float64(w.q.Len()) })
	rec := o.Rec()
	rec.Watch("warp.live", func() float64 { return float64(w.live) })
	rec.Watch("warp.queue", func() float64 { return float64(w.q.Len()) })
}
