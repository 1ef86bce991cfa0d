package main

import (
	"fmt"
	"time"

	"mac3d/internal/chaos"
	"mac3d/internal/cpu"
	"mac3d/internal/hmc"
	"mac3d/internal/memreq"
	"mac3d/internal/numa"
	"mac3d/internal/obs"
	"mac3d/internal/sim"
	"mac3d/internal/trace"
)

// timedCoalescer times the calls the cpu driver makes into the MAC
// frontend, from outside the program. It forwards the optional
// obs.Attacher and memreq.Recycler interfaces, but it hides *core.MAC
// from the driver's type assertions: a traced run therefore reports an
// ARQ occupancy of 0, and the occupancy is not sampled on backpressure
// cycles. Every other simulated statistic is unchanged.
type timedCoalescer struct {
	inner memreq.Coalescer

	pushCalls, pushRefused uint64
	tickCalls, txEmitted   uint64
	pushTime, tickTime     time.Duration
	completedTime          time.Duration

	// capture, when non-nil, collects each built transaction with the
	// cycle it left the frontend; the driver submits it to the device
	// in that same cycle.
	capture *[]capturedRequest
}

type capturedRequest struct {
	at  sim.Cycle
	req hmc.Request
}

func (c *timedCoalescer) Push(r memreq.RawRequest, now sim.Cycle) bool {
	start := time.Now()
	ok := c.inner.Push(r, now)
	c.pushTime += time.Since(start)
	c.pushCalls++
	if !ok {
		c.pushRefused++
	}
	return ok
}

func (c *timedCoalescer) Tick(now sim.Cycle) []memreq.Built {
	start := time.Now()
	out := c.inner.Tick(now)
	c.tickTime += time.Since(start)
	c.tickCalls++
	c.txEmitted += uint64(len(out))
	if c.capture != nil {
		for i := range out {
			*c.capture = append(*c.capture, capturedRequest{at: now, req: out[i].Req})
		}
	}
	return out
}

func (c *timedCoalescer) Completed(b *memreq.Built) {
	start := time.Now()
	c.inner.Completed(b)
	c.completedTime += time.Since(start)
}

func (c *timedCoalescer) Pending() int            { return c.inner.Pending() }
func (c *timedCoalescer) Inflight() int           { return c.inner.Inflight() }
func (c *timedCoalescer) Stats() *memreq.Stats    { return c.inner.Stats() }
func (c *timedCoalescer) Reset()                  { c.inner.Reset() }
func (c *timedCoalescer) coreTime() time.Duration { return c.pushTime + c.tickTime + c.completedTime }

func (c *timedCoalescer) AttachObs(o *obs.Obs) {
	if a, ok := c.inner.(obs.Attacher); ok {
		a.AttachObs(o)
	}
}

func (c *timedCoalescer) Recycle(b *memreq.Built) {
	if r, ok := c.inner.(memreq.Recycler); ok {
		r.Recycle(b)
	}
}

// tracedRun is what one traced run of the cpu driver measured.
type tracedRun struct {
	wall      time.Duration
	res       *cpu.Result
	coal      *timedCoalescer
	idleShare float64
}

// runCPUTraced builds the node exactly as cpu.Run does, with the
// frontend wrapped and the obs recorder attached, and runs tr.
func runCPUTraced(cfg cpu.RunConfig, tr *trace.Trace, capture *[]capturedRequest) (*tracedRun, error) {
	o := obs.New(obsSampleInterval, 0)
	cfg.Obs = o
	start := time.Now()
	dev, err := hmc.NewDevice(cfg.HMC)
	if err != nil {
		return nil, err
	}
	inner, err := cfg.NewCoalescer()
	if err != nil {
		return nil, err
	}
	coal := &timedCoalescer{inner: inner, capture: capture}
	n, err := cpu.NewNode(cfg.Node, coal, dev)
	if err != nil {
		return nil, err
	}
	n.AttachObs(cfg.Obs)
	n.SetRetry(cfg.Retry)
	eng, err := chaos.NewEngine(cfg.Chaos, cfg.HMC.Vaults)
	if err != nil {
		return nil, err
	}
	eng.SetCubeLinks(dev.CubeLinks())
	n.SetChaos(eng)
	if err := n.Load(tr); err != nil {
		return nil, err
	}
	res, err := n.Run()
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	return &tracedRun{wall: wall, res: res, coal: coal, idleShare: idleShare(o.Rec())}, nil
}

// obsSampleInterval is the recorder's sampling period in cycles, the
// facade's default.
const obsSampleInterval = 64

// idleShare is the share of recorder samples at which the node only
// waits on the device: transactions are in flight, while the router,
// the ARQ and the deferred-submit queue are empty. On such cycles the
// driver's work is pure overhead, which cycle skipping would remove.
func idleShare(rec *obs.Recorder) float64 {
	cols := make([][]obs.Point, 0, 4)
	for _, name := range []string{"node.inflight_tx", "node.router.pending", "mac.arq.occupancy", "node.deferred_tx"} {
		s, ok := rec.Lookup(name)
		if !ok {
			return 0
		}
		cols = append(cols, s.Points)
	}
	idle := 0
	for i := range cols[0] {
		if cols[0][i].Value > 0 && cols[1][i].Value == 0 && cols[2][i].Value == 0 && cols[3][i].Value == 0 {
			idle++
		}
	}
	return ratio(float64(idle), float64(len(cols[0])))
}

// runNUMATraced runs tr on a fresh system with the obs layer attached,
// as numa.Run would. The NUMA driver builds its frontends itself, so
// they cannot be wrapped; this run only times the driver as a whole.
func runNUMATraced(cfg numa.Config, tr *trace.Trace) (time.Duration, *numa.Result, error) {
	start := time.Now()
	s, err := numa.NewSystem(cfg)
	if err != nil {
		return 0, nil, err
	}
	s.AttachObs(obs.New(obsSampleInterval, 0))
	if err := s.Load(tr); err != nil {
		return 0, nil, err
	}
	res, err := s.Run()
	return time.Since(start), res, err
}

// replayDevice feeds a captured request stream through a fresh device
// and times it. Like the cpu driver, it submits one cycle's
// transactions only while the device can accept, then ticks it. The
// stream is replayed open loop: nothing waits for responses, so the
// cycle count is an estimate of the closed-loop run's, and matches it
// only while the device keeps up.
func replayDevice(cfg hmc.Config, reqs []capturedRequest, limit sim.Cycle) (sim.Cycle, time.Duration, error) {
	dev, err := hmc.NewDevice(cfg)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	next := 0
	for now := sim.Cycle(0); now < limit; now++ {
		if next < len(reqs) && reqs[next].at <= now && dev.CanAccept() {
			at := reqs[next].at
			for ; next < len(reqs) && reqs[next].at == at; next++ {
				req := reqs[next].req
				req.Tag = uint64(next)
				dev.Submit(req, now)
			}
		}
		dev.Tick(now)
		if next == len(reqs) && dev.Pending() == 0 {
			return now + 1, time.Since(start), nil
		}
	}
	return 0, 0, fmt.Errorf("device replay did not drain within %d cycles", limit)
}
