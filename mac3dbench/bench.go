package main

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"runtime/pprof"
	"time"

	"mac3d"
	"mac3d/internal/cpu"
	"mac3d/internal/numa"
	"mac3d/internal/sim"
	"mac3d/internal/trace"
)

const (
	// setupReps is how often one run generates its traces; setup_s
	// is the median.
	setupReps = 7
	// minRounds is the fewest timed rounds an untraced run makes,
	// whatever --seconds says, so every trace has a fastest of three.
	minRounds = 3
)

// bench measures one workload at one seed. Every simulation it makes
// counts as attempted; every failed simulation or check counts as
// failed.
type bench struct {
	w       workload
	seed    uint64
	seconds time.Duration
	log     io.Writer

	cpuCfg  cpu.RunConfig
	numaCfg numa.Config

	traces []*trace.Trace
	events []uint64
	// want holds each trace's first outcome; every later run of the
	// trace must reproduce it exactly.
	want []outcome
	seen []bool

	attempted, failed int
}

func newBench(w workload, seed uint64, seconds float64, log io.Writer) *bench {
	return &bench{w: w, seed: seed, seconds: time.Duration(seconds * float64(time.Second)), log: log}
}

func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(b.log, "FAIL %s: %s\n", b.w.name, fmt.Sprintf(format, args...))
}

// prepare lowers the configuration and generates the first n traces
// of the batch setupReps times, checking that each generation repeats
// the first. It returns the median seconds per trace.
func (b *bench) prepare(n int) (float64, bool) {
	var err error
	if b.w.numa {
		b.numaCfg, err = b.w.numaConfig()
	} else {
		b.cpuCfg, err = b.w.runConfig()
	}
	if err != nil {
		b.attempted++
		b.fail("lowering the configuration: %v", err)
		return 0, false
	}
	seeds := b.w.seeds(b.seed)[:n]
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		traces := make([]*trace.Trace, n)
		start := time.Now()
		for i, s := range seeds {
			if traces[i], err = b.w.generate(s); err != nil {
				b.attempted++
				b.fail("generating trace seed %d: %v", s, err)
				return 0, false
			}
		}
		times = append(times, time.Since(start).Seconds()/float64(n))
		if rep == 0 {
			b.traces = traces
			continue
		}
		for i := range traces {
			if !reflect.DeepEqual(traces[i], b.traces[i]) {
				b.fail("trace seed %d differs between two generations", seeds[i])
			}
		}
	}
	b.events = make([]uint64, n)
	for i, tr := range b.traces {
		b.events[i] = memEvents(tr)
	}
	b.want = make([]outcome, n)
	b.seen = make([]bool, n)
	return median(times), true
}

// runSample is the host cost of one untraced simulation.
type runSample struct {
	wall     time.Duration
	alloc    uint64
	mallocs  uint64
	gcCycles uint32
	gcPause  time.Duration
}

// simulate replays trace i untraced through cpu.Run or numa.Run and
// checks the outcome.
func (b *bench) simulate(i int) (runSample, outcome, bool) {
	b.attempted++
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var (
		cpuRes  *cpu.Result
		numaRes *numa.Result
		err     error
	)
	start := time.Now()
	if b.w.numa {
		numaRes, err = numa.Run(b.numaCfg, b.traces[i])
	} else {
		cpuRes, err = cpu.Run(b.cpuCfg, b.traces[i])
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		b.fail("trace %d: %v", i, err)
		return runSample{}, outcome{}, false
	}
	var o outcome
	if b.w.numa {
		o = numaOutcome(numaRes)
	} else {
		o = cpuOutcome(cpuRes)
	}
	b.check(i, o)
	return runSample{
		wall:     wall,
		alloc:    after.TotalAlloc - before.TotalAlloc,
		mallocs:  after.Mallocs - before.Mallocs,
		gcCycles: after.NumGC - before.NumGC,
		gcPause:  time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}, o, true
}

// check verifies request conservation and that the trace's simulated
// outcome repeats exactly.
func (b *bench) check(i int, o outcome) {
	if err := o.conservationError(b.events[i]); err != nil {
		b.fail("trace %d: %v", i, err)
	}
	if !b.seen[i] {
		b.want[i], b.seen[i] = o, true
	} else if o != b.want[i] {
		b.fail("trace %d: simulated metrics differ between two runs", i)
	}
}

// simView is the part of a run's simulated result that both the
// facade's reports and the benchmark's outcomes expose.
type simView struct {
	Cycles, MemRequests, Transactions, BankConflicts uint64
	LatencyMean                                      float64

	P99                         uint64
	BandwidthEff, CoalescingEff float64
	ARQOccupancy, LinkGBps      float64
	StallRouter, StallLSQ       uint64
	RowHits, FabricDelivered    uint64
	Remote, InjectRejects       uint64
	CreditStalls                uint64
	AvgHops, NetLatencyMean     float64
}

func cpuView(o outcome) simView {
	return simView{
		Cycles: o.cycles, MemRequests: o.memRequests, Transactions: o.transactions,
		BankConflicts: o.bankConflicts, LatencyMean: o.latency.Mean(),
		P99: o.latency.Quantile(0.99), BandwidthEff: o.bandwidthEfficiency(),
		CoalescingEff: o.coalescingEfficiency(), ARQOccupancy: o.arqOccupancy,
		LinkGBps: o.linkGBps(), StallRouter: o.stallRouter, StallLSQ: o.stallLSQ,
		RowHits: o.rowHits, FabricDelivered: o.nocStats.delivered,
	}
}

func runReportView(r *mac3d.RunReport) simView {
	v := simView{
		Cycles: r.Cycles, MemRequests: r.MemRequests, Transactions: r.Transactions,
		BankConflicts: r.BankConflicts, LatencyMean: r.AvgLatencyCycles,
		P99: r.P99LatencyCycles, BandwidthEff: r.BandwidthEfficiency,
		CoalescingEff: r.CoalescingEfficiency, ARQOccupancy: r.ARQOccupancy,
		LinkGBps: r.LinkGBps, StallRouter: r.StallRouter, StallLSQ: r.StallLSQ,
	}
	if r.Cube != nil {
		v.RowHits, v.FabricDelivered = r.Cube.RowHits, r.Cube.FabricDelivered
	}
	return v
}

func numaView(o outcome) simView {
	return simView{
		Cycles: o.cycles, MemRequests: o.memRequests, Transactions: o.transactions,
		BankConflicts: o.bankConflicts, LatencyMean: o.latency.Mean(),
		Remote: o.remote, InjectRejects: o.nocStats.injectRejects,
		CreditStalls: o.nocStats.creditStalls, AvgHops: o.nocStats.hops.Mean(),
		NetLatencyMean: o.nocStats.netLatency.Mean(),
	}
}

func numaReportView(r *mac3d.NUMAReport) simView {
	v := simView{
		Cycles: r.Cycles, MemRequests: r.MemRequests, LatencyMean: r.AvgLatencyCycles,
		Remote: r.RemoteRequests,
	}
	for _, n := range r.PerNode {
		v.Transactions += n.Transactions
		v.BankConflicts += n.BankConflicts
	}
	if r.NoC != nil {
		v.InjectRejects, v.CreditStalls = r.NoC.InjectRejects, r.NoC.CreditStallCycles
		v.AvgHops, v.NetLatencyMean = r.NoC.AvgHops, r.NoC.AvgNetLatencyCycles
	}
	return v
}

// reference runs the first trace's seed once through the facade, with
// the audit ledger on where the driver has one. This run is also the
// discarded warm-up. It returns the facade's simulated metrics, which
// the benchmark's own lowering must reproduce (see lowered).
func (b *bench) reference() (simView, bool) {
	seed := b.w.seeds(b.seed)[0]
	b.attempted++
	if b.w.numa {
		rep, err := mac3d.RunNUMA(b.w.numaOptions(seed))
		if err != nil {
			b.fail("mac3d.RunNUMA: %v", err)
			return simView{}, false
		}
		note(b.log, "%s: audit skipped, the NUMA driver has no audit ledger; request conservation is checked from its counters", b.w.name)
		return numaReportView(rep), true
	}
	opts := b.w.runOptions(seed)
	opts.Audit = true
	rep, err := mac3d.Run(opts)
	if err != nil {
		b.fail("mac3d.Run: %v", err)
		return simView{}, false
	}
	a := rep.Audit
	if !a.Ok() || a.Open != 0 || a.Failed != 0 || a.Issued != rep.MemRequests || a.Delivered != a.Issued {
		b.fail("audit ledger not clean: %+v", a)
	} else {
		note(b.log, "%s: audit ledger clean: %d requests issued, %d delivered", b.w.name, a.Issued, a.Delivered)
	}
	return runReportView(rep), true
}

// lowered checks the first trace's outcome under the benchmark's own
// lowering against the facade's view of the same seed.
func (b *bench) lowered(facade simView) {
	got := cpuView(b.want[0])
	if b.w.numa {
		got = numaView(b.want[0])
	}
	if got != facade {
		b.fail("own lowering differs from the facade:\n  own    %+v\n  facade %+v", got, facade)
		return
	}
	note(b.log, "%s: own lowering matches the facade on seed %d", b.w.name, b.w.seeds(b.seed)[0])
}

// fits reports whether another round of length last still fits,
// roughly, in the run's measuring time.
func (b *bench) fits(start time.Time, last time.Duration) bool {
	return time.Since(start)+last/2 < b.seconds
}

// endToEnd measures the untraced metrics. Each round runs the whole
// trace batch, every run timed and checked. A trace's host time is its
// fastest round: other tenants of a shared host only ever slow a run
// down. On a 2-CPU development host the spread of per-process medians
// of identical runs was 31%, that of per-process minima 7%.
func (b *bench) endToEnd() []metric {
	k := b.w.batch
	setup, ok := b.prepare(k)
	if !ok {
		return nil
	}
	facade, ok := b.reference()

	best := make([]time.Duration, k)
	var roundWalls, allocs []float64
	var pooled outcome
	start := time.Now()
	var last time.Duration
	for len(roundWalls) < minRounds || b.fits(start, last) {
		roundStart := time.Now()
		var wall time.Duration
		var alloc uint64
		for i := 0; i < k; i++ {
			s, o, ran := b.simulate(i)
			if !ran {
				continue
			}
			if len(roundWalls) == 0 {
				pooled.add(o)
			}
			if best[i] == 0 || s.wall < best[i] {
				best[i] = s.wall
			}
			wall += s.wall
			alloc += s.alloc
		}
		if len(roundWalls) == 0 && ok && b.seen[0] {
			b.lowered(facade)
		}
		roundWalls = append(roundWalls, wall.Seconds()/float64(k))
		allocs = append(allocs, float64(alloc)/float64(k)/1e6)
		last = time.Since(roundStart)
	}

	var fastest time.Duration
	for _, d := range best {
		fastest += d
	}
	wall := fastest.Seconds() / float64(k)
	note(b.log, "%s: %d rounds of %d traces; per-run host time: fastest %g s, median round %g s",
		b.w.name, len(roundWalls), k, wall, median(roundWalls))
	note(b.log, "%s: %d runs attempted, %d failed; error_rate %g",
		b.w.name, b.attempted, b.failed, float64(b.failed)/float64(b.attempted))
	note(b.log, "%s: coalescing_efficiency %g (1 - tx_per_request)", b.w.name, pooled.coalescingEfficiency())
	cycles := float64(pooled.cycles) / float64(k)
	return []metric{
		{"wall_s", wall, "s"},
		{"sim_cycles_per_s", cycles / wall, "1/s"},
		{"setup_s", setup, "s"},
		{"alloc_mb", median(allocs), "MB"},
		{"sim_cycles", cycles, "cycles"},
		{"mem_latency_mean_cycles", pooled.latency.Mean(), "cycles"},
		{"mem_latency_p99_cycles", float64(pooled.latency.Quantile(0.99)), "cycles"},
		{"bandwidth_efficiency", pooled.bandwidthEfficiency(), "ratio"},
		{"tx_per_request", pooled.txPerRequest(), "ratio"},
	}
}

// layers makes the traced run on the batch's first trace. Each round
// makes an untraced run under the CPU profiler, a traced run, and, on
// the single-node driver, a standalone replay of the device. Times are
// medians over rounds; counts come from the first trace's outcome.
func (b *bench) layers() []metric {
	genTime, ok := b.prepare(1)
	if !ok {
		return nil
	}
	facade, ok := b.reference()

	var untraced, traced, push, tick, completed, coreTime, replay []float64
	var mallocs, gcCycles, gcPause []float64
	var tr *tracedRun
	var capture []capturedRequest
	var replayCycles sim.Cycle
	profile := map[string]int{}
	start := time.Now()
	var last time.Duration
	for len(traced) == 0 || b.fits(start, last) {
		roundStart := time.Now()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			b.fail("starting the CPU profile: %v", err)
			return nil
		}
		s, _, ran := b.simulate(0)
		pprof.StopCPUProfile()
		if !ran {
			return nil
		}
		if len(traced) == 0 && ok {
			b.lowered(facade)
		}
		want := b.want[0]
		if err := leafLayerSamples(prof.Bytes(), profile); err != nil {
			b.fail("%v", err)
		}
		untraced = append(untraced, s.wall.Seconds())
		mallocs = append(mallocs, float64(s.mallocs))
		gcCycles = append(gcCycles, float64(s.gcCycles))
		gcPause = append(gcPause, s.gcPause.Seconds())

		b.attempted++
		if b.w.numa {
			wall, res, err := runNUMATraced(b.numaCfg, b.traces[0])
			if err != nil {
				b.fail("traced run: %v", err)
				return nil
			}
			if numaOutcome(res) != want {
				b.fail("traced run changed the simulated metrics")
			}
			traced = append(traced, wall.Seconds())
		} else {
			var sink *[]capturedRequest
			if capture == nil {
				sink = &capture
			}
			t, err := runCPUTraced(b.cpuCfg, b.traces[0], sink)
			if err != nil {
				b.fail("traced run: %v", err)
				return nil
			}
			o := cpuOutcome(t.res)
			o.arqOccupancy = want.arqOccupancy // hidden by the wrapper, see timedCoalescer
			if o != want {
				b.fail("traced run changed the simulated metrics")
			}
			tr = t
			c := t.coal
			traced = append(traced, t.wall.Seconds())
			push = append(push, c.pushTime.Seconds())
			tick = append(tick, c.tickTime.Seconds())
			completed = append(completed, c.completedTime.Seconds())
			coreTime = append(coreTime, c.coreTime().Seconds())

			b.attempted++
			cycles, d, err := replayDevice(b.cpuCfg.HMC, capture, 4*sim.Cycle(want.cycles)+1_000_000)
			if err != nil {
				b.fail("%v", err)
				return nil
			}
			replayCycles = cycles
			replay = append(replay, d.Seconds())
		}
		last = time.Since(roundStart)
	}

	want := b.want[0]
	cycles := float64(want.cycles)
	samples := 0
	for _, n := range profile {
		samples += n
	}
	ms := []metric{
		{"workloads.generate_s", genTime, "s"},
		{"workloads.events", float64(b.traces[0].Len()), "count"},
		{"trace.overhead", median(traced) / median(untraced), "ratio"},
	}
	var c timedCoalescer
	if tr != nil {
		c = *tr.coal
	}
	coreShare, cpuRun, cpuSelf, idle := 0.0, 0.0, 0.0, 0.0
	numaRun := 0.0
	if b.w.numa {
		numaRun = median(traced)
		note(b.log, "%s: core, cpu and hmc replay metrics read 0: the NUMA driver builds its frontends and devices itself", b.w.name)
	} else {
		cpuRun = median(traced)
		selfs := make([]float64, len(traced))
		for i := range traced {
			selfs[i] = traced[i] - coreTime[i]
		}
		cpuSelf = median(selfs)
		coreShare = median(coreTime) / cpuRun
		idle = tr.idleShare
		note(b.log, "%s: traced ARQ occupancy reads 0 and is not sampled on backpressure cycles: the timing wrapper hides the MAC from the driver; untraced it is %g",
			b.w.name, want.arqOccupancy)
		note(b.log, "%s: device replay took %d cycles open loop, the closed-loop run %d (%+.3f%%)",
			b.w.name, replayCycles, want.cycles, 100*(float64(replayCycles)/cycles-1))
	}
	ms = append(ms,
		metric{"core.push_calls", float64(c.pushCalls), "count"},
		metric{"core.push_refused_share", ratio(float64(c.pushRefused), float64(c.pushCalls)), "ratio"},
		metric{"core.push_s", median(push), "s"},
		metric{"core.tick_calls", float64(c.tickCalls), "count"},
		metric{"core.tick_calls_per_cycle", ratio(float64(c.tickCalls), cycles), "ratio"},
		metric{"core.tick_s", median(tick), "s"},
		metric{"core.completed_s", median(completed), "s"},
		metric{"core.tx_emitted", float64(c.txEmitted), "count"},
		metric{"core.share_of_run", coreShare, "ratio"},
		metric{"core.arq_occupancy", want.arqOccupancy, "entries"},
		metric{"core.targets_per_tx", want.targetsPerTx.Mean(), "count"},
		metric{"core.bypassed_share", ratio(float64(want.bypassed), float64(want.transactions)), "ratio"},
		metric{"cpu.run_s", cpuRun, "s"},
		metric{"cpu.self_s", cpuSelf, "s"},
		metric{"cpu.stall_router_cycles", float64(want.stallRouter), "cycles"},
		metric{"cpu.stall_lsq_cycles", float64(want.stallLSQ), "cycles"},
		metric{"cpu.idle_share", idle, "ratio"},
		metric{"hmc.replay_s", median(replay), "s"},
		metric{"hmc.replay_ns_per_tx", 1e9 * ratio(median(replay), float64(len(capture))), "ns"},
		metric{"hmc.replay_cycles", float64(replayCycles), "cycles"},
		metric{"hmc.bank_conflicts", float64(want.bankConflicts), "count"},
		metric{"hmc.row_hit_rate", ratio(float64(want.rowHits), float64(want.rowTotal)), "ratio"},
		metric{"hmc.link_gbps", want.linkGBps(), "GB/s"},
		metric{"noc.delivered", float64(want.nocStats.delivered), "count"},
		metric{"noc.avg_hops", want.nocStats.hops.Mean(), "hops"},
		metric{"noc.net_latency_mean_cycles", want.nocStats.netLatency.Mean(), "cycles"},
		metric{"noc.inject_rejects", float64(want.nocStats.injectRejects), "count"},
		metric{"noc.credit_stall_cycles", float64(want.nocStats.creditStalls), "cycles"},
		metric{"numa.run_s", numaRun, "s"},
		metric{"numa.remote_share", ratio(float64(want.remote), float64(want.memRequests)), "ratio"},
		metric{"host.mallocs", median(mallocs), "count"},
		metric{"host.gc_cycles", median(gcCycles), "count"},
		metric{"host.gc_pause_s", median(gcPause), "s"},
		metric{"pprof.samples", float64(samples), "count"},
	)
	for _, l := range profileLayers {
		ms = append(ms, metric{"pprof." + l + ".share", ratio(float64(profile[l]), float64(samples)), "ratio"})
	}
	note(b.log, "%s: %d traced rounds on seed %d; pprof shares attribute each sample to the package of its leaf frame",
		b.w.name, len(traced), b.w.seeds(b.seed)[0])
	return ms
}
