package main

import (
	"fmt"

	"mac3d"
	"mac3d/internal/cpu"
	"mac3d/internal/hmc"
	"mac3d/internal/noc"
	"mac3d/internal/numa"
	"mac3d/internal/sim"
	"mac3d/internal/stats"
	"mac3d/internal/trace"
	"mac3d/internal/workloads"
)

// workload is one benchmark input: a trace kernel and the system that
// replays it. Every workload runs the MAC design with 8 threads at
// the small scale.
type workload struct {
	name   string
	kernel string
	// batch is how many traces one round replays. The first is
	// generated from the run's seed, the rest from seeds derived from
	// it. Saturated sg runs move their cycle count by several percent
	// from seed to seed, so their rounds pool several traces; pchase
	// repeats to the cycle and needs one.
	batch int
	// cube is the device's cube configuration (hmc.ParseCubeConfig).
	cube string
	// maxOutstanding overrides the per-core load/store queue depth.
	maxOutstanding int
	// numa runs 8 nodes of one core each over a mesh NoC, sequentially.
	numa bool
}

// benchWorkloads lists the workloads in the order `--workload all`
// runs them. BENCHMARK.json records why each was chosen.
var benchWorkloads = []workload{
	{name: "sg-ideal", kernel: "sg", batch: 8},
	{name: "sg-ring-open", kernel: "sg", batch: 3, cube: "ring,page=open"},
	{name: "sg-numa-mesh", kernel: "sg", batch: 4, numa: true},
	{name: "pchase-lsq1", kernel: "pchase", batch: 1, maxOutstanding: 1},
}

const (
	benchThreads = 8
	numaNodes    = 8
)

func findWorkload(name string) (workload, error) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, 0, len(benchWorkloads))
	for _, w := range benchWorkloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v or all)", name, names)
}

// seeds returns the batch's trace seeds: seed itself first, so the
// first trace is the one mac3d.Run generates for that seed, then
// splitmix64 derivations that do not overlap another seed's batch.
func (w workload) seeds(seed uint64) []uint64 {
	if seed == 0 {
		seed = 1 // the facade's default, so the first trace matches it
	}
	out := []uint64{seed}
	for i := 1; i < w.batch; i++ {
		z := seed + uint64(i)*0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		if z == 0 {
			z = 1
		}
		out = append(out, z)
	}
	return out
}

func (w workload) generate(seed uint64) (*trace.Trace, error) {
	return workloads.Generate(w.kernel, workloads.Config{Threads: benchThreads, Seed: seed, Scale: workloads.Small})
}

// runOptions is the facade spelling of the workload, the reference the
// benchmark's own lowering is checked against.
func (w workload) runOptions(seed uint64) mac3d.RunOptions {
	return mac3d.RunOptions{
		Workload:       w.kernel,
		Threads:        benchThreads,
		Seed:           seed,
		Scale:          mac3d.ScaleSmall,
		Design:         mac3d.DesignMAC,
		Cube:           w.cube,
		MaxOutstanding: w.maxOutstanding,
	}
}

func (w workload) numaOptions(seed uint64) mac3d.NUMAOptions {
	return mac3d.NUMAOptions{
		Workload:     w.kernel,
		Threads:      benchThreads,
		Seed:         seed,
		Scale:        mac3d.ScaleSmall,
		Design:       mac3d.DesignMAC,
		Nodes:        numaNodes,
		CoresPerNode: benchThreads / numaNodes,
		Cube:         w.cube,
		NoC:          &mac3d.NoCOptions{Topology: noc.Mesh},
	}
}

// runConfig lowers the workload onto the single-node driver's
// configuration, as RunOptions would.
func (w workload) runConfig() (cpu.RunConfig, error) {
	cfg := cpu.DefaultRunConfig()
	cfg.Kind = cpu.WithMAC
	if w.maxOutstanding != 0 {
		cfg.Node.MaxOutstanding = w.maxOutstanding
	}
	cube, err := hmc.ParseCubeConfig(w.cube)
	if err != nil {
		return cfg, err
	}
	cfg.HMC.Cube = cube
	cfg.HMC.Faults = hmc.FaultConfig{}
	return cfg, cfg.HMC.Validate()
}

// numaConfig lowers the workload onto the multi-node driver's
// configuration, as NUMAOptions would after Normalize: a 100 ns
// ideal-fallback hop, and mesh links of 25 ns, 2 flits per cycle,
// 64-flit buffers and 8-message injection queues.
func (w workload) numaConfig() (numa.Config, error) {
	clock := sim.NewClock(0)
	cfg := numa.DefaultConfig()
	cfg.Kind = cpu.WithMAC
	cfg.Nodes = numaNodes
	cfg.CoresPerNode = benchThreads / numaNodes
	cfg.LinkLatency = clock.CyclesForNanos(100)
	cfg.NoC = noc.Config{
		Topology:      noc.Mesh,
		LinkLatency:   clock.CyclesForNanos(25),
		LinkBandwidth: 2,
		BufferFlits:   64,
		InjectDepth:   8,
	}
	cube, err := hmc.ParseCubeConfig(w.cube)
	if err != nil {
		return cfg, err
	}
	cfg.HMC.Cube = cube
	return cfg, cfg.Validate()
}

// outcome is the simulated result of one run. Simulations are
// deterministic, so two runs of one trace must give equal outcomes;
// the struct is comparable so that check is a plain ==.
type outcome struct {
	cycles       uint64
	memRequests  uint64
	spmAccesses  uint64
	failed       uint64
	latency      stats.Histogram
	dataBytes    uint64
	controlBytes uint64
	// rawRequests and transactions are the coalescers' input and
	// output counts, summed over nodes.
	rawRequests  uint64
	transactions uint64
	bypassed     uint64
	targetsPerTx stats.Histogram
	arqOccupancy float64
	stallRouter  uint64
	stallLSQ     uint64
	// retireUnderflows and misrouted count malformed deliveries the
	// drivers survived; both must stay 0.
	retireUnderflows uint64
	misrouted        uint64

	bankConflicts uint64
	rowHits       uint64
	rowTotal      uint64

	// nocStats describes the interconnect the workload exercises: the
	// intra-cube fabric of a routed cube, or the NUMA NoC.
	nocStats nocSummary
	remote   uint64
}

// nocSummary is the comparable part of a noc.Stats.
type nocSummary struct {
	delivered     uint64
	hops          stats.Histogram
	netLatency    stats.Histogram
	injectRejects uint64
	creditStalls  uint64
}

func summarizeNoC(dst *nocSummary, st *noc.Stats) {
	if st == nil {
		return
	}
	credit, _ := st.StallCycles()
	dst.delivered += st.Delivered
	dst.hops.Merge(&st.Hops)
	dst.netLatency.Merge(&st.NetLatency)
	dst.injectRejects += st.InjectRejects
	dst.creditStalls += credit
}

func cpuOutcome(r *cpu.Result) outcome {
	o := outcome{
		cycles:           uint64(r.Cycles),
		memRequests:      r.MemRequests,
		spmAccesses:      r.SPMAccesses,
		failed:           r.FailedRequests,
		latency:          r.RequestLatency,
		dataBytes:        r.Device.DataBytes,
		controlBytes:     r.Device.ControlBytes,
		rawRequests:      r.Coalescer.RawRequests,
		transactions:     r.Coalescer.Transactions,
		bypassed:         r.Coalescer.Bypassed,
		targetsPerTx:     r.Coalescer.TargetsPerTx,
		arqOccupancy:     r.ARQOccupancy,
		stallRouter:      r.StallRouter,
		stallLSQ:         r.StallLSQ,
		retireUnderflows: r.RetireUnderflows,
		misrouted:        r.Misrouted,
		bankConflicts:    r.Device.BankConflicts,
		rowHits:          r.Device.RowHits,
		rowTotal:         r.Device.RowHits + r.Device.RowMisses + r.Device.RowConflicts,
	}
	summarizeNoC(&o.nocStats, r.Cube)
	return o
}

func numaOutcome(r *numa.Result) outcome {
	o := outcome{
		cycles:           uint64(r.Cycles),
		memRequests:      r.MemRequests,
		spmAccesses:      r.SPMAccesses,
		failed:           r.FailedRequests,
		latency:          r.RequestLatency,
		retireUnderflows: r.RetireUnderflows,
		misrouted:        r.Misrouted,
		remote:           r.RemoteRequests,
	}
	summarizeNoC(&o.nocStats, r.NoC)
	for _, ns := range r.PerNode {
		o.dataBytes += ns.Device.DataBytes
		o.controlBytes += ns.Device.ControlBytes
		o.rawRequests += ns.Coalescer.RawRequests
		o.transactions += ns.Coalescer.Transactions
		o.bypassed += ns.Coalescer.Bypassed
		o.targetsPerTx.Merge(&ns.Coalescer.TargetsPerTx)
		o.bankConflicts += ns.Device.BankConflicts
		o.rowHits += ns.Device.RowHits
		o.rowTotal += ns.Device.RowHits + ns.Device.RowMisses + ns.Device.RowConflicts
	}
	return o
}

// add pools another run's outcome into o, for the batch-wide
// end-to-end metrics: sums stay sums, and the ratios derived from them
// become batch-wide ratios. Fields no end-to-end metric reads are left
// alone.
func (o *outcome) add(x outcome) {
	o.cycles += x.cycles
	o.latency.Merge(&x.latency)
	o.dataBytes += x.dataBytes
	o.controlBytes += x.controlBytes
	o.rawRequests += x.rawRequests
	o.transactions += x.transactions
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (o outcome) bandwidthEfficiency() float64 {
	return ratio(float64(o.dataBytes), float64(o.dataBytes+o.controlBytes))
}

// txPerRequest is transactions per raw request, 1 − the paper's
// coalescing efficiency. It is reported instead of the efficiency
// because pchase merges nothing, where the efficiency reads 0.
func (o outcome) txPerRequest() float64 {
	return ratio(float64(o.transactions), float64(o.rawRequests))
}

func (o outcome) coalescingEfficiency() float64 {
	if o.rawRequests == 0 {
		return 0
	}
	return 1 - o.txPerRequest()
}

// linkGBps is data plus control bytes over the makespan at the 3.3 GHz
// master clock, the RunReport's LinkGBps.
func (o outcome) linkGBps() float64 {
	seconds := float64(o.cycles) / sim.NewClock(0).FreqHz
	return ratio(float64(o.dataBytes+o.controlBytes), seconds) / 1e9
}

// conservationError checks that every memory event of the trace was
// either a scratchpad hit or a raw request that completed without
// failing, exactly once.
func (o outcome) conservationError(memEvents uint64) error {
	switch {
	case o.memRequests+o.spmAccesses != memEvents:
		return fmt.Errorf("issued %d requests + %d scratchpad hits, trace has %d memory events",
			o.memRequests, o.spmAccesses, memEvents)
	case o.latency.Count() != o.memRequests:
		return fmt.Errorf("%d of %d raw requests completed", o.latency.Count(), o.memRequests)
	case o.failed != 0:
		return fmt.Errorf("%d raw requests failed", o.failed)
	case o.retireUnderflows != 0 || o.misrouted != 0:
		return fmt.Errorf("%d retire underflows, %d misrouted targets", o.retireUnderflows, o.misrouted)
	}
	return nil
}

func memEvents(tr *trace.Trace) uint64 {
	var n uint64
	for _, th := range tr.Threads {
		for _, e := range th {
			if e.Op.IsMemory() {
				n++
			}
		}
	}
	return n
}
