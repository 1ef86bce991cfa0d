package numa

import (
	"testing"

	"mac3d/internal/chaos"
	"mac3d/internal/cpu"
	"mac3d/internal/memreq"
	"mac3d/internal/noc"
	"mac3d/internal/sim"
	"mac3d/internal/trace"
)

// goldTrace is the sequential per-thread load pattern the golden
// captures were taken with.
func goldTrace(threads, n int) *trace.Trace {
	tr := trace.NewTrace(threads)
	for t := 0; t < threads; t++ {
		base := uint64(t) << 24
		for i := 0; i < n; i++ {
			tr.Append(trace.Event{
				Addr: base + uint64(i)*8, Thread: uint16(t),
				Op: trace.Load, Size: 8, Gap: 1,
			})
		}
	}
	return tr
}

// goldMixTrace is an LCG-driven mixed load/store pattern with
// irregular gaps.
func goldMixTrace(seed uint64, threads, n int) *trace.Trace {
	tr := trace.NewTrace(threads)
	x := seed | 1
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		op := trace.Load
		if x%5 == 0 {
			op = trace.Store
		}
		tr.Append(trace.Event{
			Addr:   x % (1 << 22),
			Thread: uint16(i % threads),
			Op:     op,
			Size:   8,
			Gap:    uint8(x % 3),
		})
	}
	return tr
}

// goldenCase pins one pre-NoC run: the expected numbers were captured
// from the interconnect model as it existed before internal/noc, so
// this test is the cycle-for-cycle compatibility contract of the
// `ideal` topology (and of the deprecated LinkLatency/LinkBandwidth
// alias fields that map onto it).
type goldenCase struct {
	name     string
	nodes    int
	lat      sim.Cycle
	bw       int
	inter    uint64
	tr       func() *trace.Trace
	cycles   sim.Cycle
	remote   uint64
	latSum   uint64
	latCount uint64
}

// goldenCases' mix rows, and the kind-* pinnedCases, were re-captured
// when NUMA nodes gained cpu.Node's per-cycle issue-priority rotation.
// Before it every node ticked its threads in fixed order, so the lowest
// thread always won router space first, and a one-node system ran up
// to 51% slower than the single-node driver on the same trace. Only
// runs with more than one thread per node moved; remote, NoC, failed
// and retried counts did not. The pre-rotation captures were:
// mix-3n latSum=206865; mix-2n-lat0 cycles=619, latSum=83846;
// kind-mac 1432/345622; kind-raw 1412/341457; kind-mshr 1724/386085;
// kind-warp 4016/821542; kind-memcache 1890/390626 (cycles/latSum).
var goldenCases = []goldenCase{
	{"seq-2n", 2, 330, 2, 0, func() *trace.Trace { return goldTrace(4, 96) },
		13806, 192, 3241715, 384},
	{"mix-3n", 3, 113, 2, 512, func() *trace.Trace { return goldMixTrace(7, 6, 400) },
		897, 259, 208410, 400},
	{"mix-2n-lat0", 2, 0, 3, 0, func() *trace.Trace { return goldMixTrace(9, 4, 200) },
		615, 101, 84512, 200},
}

// saturatedCase pins the one shape where the ideal fabric deliberately
// diverges from the pre-NoC model: a trace that saturates the Remote
// Access Queue (bw=1, four nodes — ~10.7k delivery refusals). The old
// model re-queued a refused delivery one cycle out, letting younger
// same-source messages pop past it (its capture: cycles=20248,
// latSum=6028266); the fabric preserves per-source FIFO instead. The
// numbers below pin the fixed behaviour so it stays deterministic.
var saturatedCase = goldenCase{
	"seq-4n", 4, 57, 1, 0, func() *trace.Trace { return goldTrace(8, 64) },
	20444, 384, 5764975, 512,
}

func (c goldenCase) config() Config {
	cfg := DefaultConfig()
	cfg.Nodes = c.nodes
	cfg.LinkLatency = c.lat
	cfg.LinkBandwidth = c.bw
	if c.inter != 0 {
		cfg.InterleaveBytes = c.inter
	}
	return cfg
}

func (c goldenCase) check(t *testing.T, res *Result) {
	t.Helper()
	if res.Cycles != c.cycles {
		t.Errorf("cycles = %d, want %d", res.Cycles, c.cycles)
	}
	if res.RemoteRequests != c.remote {
		t.Errorf("remote requests = %d, want %d", res.RemoteRequests, c.remote)
	}
	if got := res.RequestLatency.Sum(); got != c.latSum {
		t.Errorf("latency sum = %d, want %d", got, c.latSum)
	}
	if got := res.RequestLatency.Count(); got != c.latCount {
		t.Errorf("latency count = %d, want %d", got, c.latCount)
	}
}

// TestGoldenIdealMatchesPreNoC replays the pinned pre-NoC runs through
// the deprecated alias fields (empty NoC → ideal fabric). Any drift
// here means old NUMA results are no longer reproducible.
func TestGoldenIdealMatchesPreNoC(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Run(c.config(), c.tr())
			if err != nil {
				t.Fatal(err)
			}
			c.check(t, res)
			if res.NoC == nil || res.NoC.Topology != noc.Ideal {
				t.Fatalf("expected ideal NoC stats, got %+v", res.NoC)
			}
		})
	}
}

// TestSaturatedRemoteQueuePinned pins the RAQ-saturating shape (see
// saturatedCase) and checks the fabric actually exercised the refusal
// path it exists to fix.
func TestSaturatedRemoteQueuePinned(t *testing.T) {
	res, err := Run(saturatedCase.config(), saturatedCase.tr())
	if err != nil {
		t.Fatal(err)
	}
	saturatedCase.check(t, res)
	if res.NoC.DeliverRetries == 0 {
		t.Fatal("expected delivery refusals in the saturated run")
	}
}

// TestGoldenExplicitIdealMatchesAlias runs the same cases with an
// explicit NoC config instead of the deprecated fields: the two
// spellings must be indistinguishable, including the zero-latency
// case (lat=0 must stay 0, not turn into a default).
func TestGoldenExplicitIdealMatchesAlias(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.config()
			cfg.LinkLatency = 0
			cfg.LinkBandwidth = 0
			cfg.NoC = noc.Config{
				Topology:      noc.Ideal,
				LinkLatency:   c.lat,
				LinkBandwidth: c.bw,
			}
			res, err := Run(cfg, c.tr())
			if err != nil {
				t.Fatal(err)
			}
			c.check(t, res)
		})
	}
}

// pinnedCase pins one configuration the pre-NoC goldens do not reach:
// the routed ring and mesh fabrics, chaos link stalls, poison retry,
// every coalescer frontend, and a shape that forces the routed
// fabrics to refuse injections. The expected numbers are captures of
// the sequential core; any drift is a behaviour change.
type pinnedCase struct {
	name string
	cfg  func() Config
	tr   func() *trace.Trace
	want pinnedResult
}

// pinnedResult is the slice of a Result a pinnedCase holds fixed, in
// table column order.
type pinnedResult struct {
	cycles           sim.Cycle
	remote           uint64
	latSum, latCount uint64
	// NoC counters.
	sent, delivered               uint64
	injectRejects, deliverRetries uint64
	failed, retried               uint64
	// Chaos link-stall events and the link cycles they blocked.
	linkStalls, chaosStallCycles uint64
}

// pinnedOf extracts the pinned slice of a Result.
func pinnedOf(r *Result) pinnedResult {
	p := pinnedResult{
		cycles:         r.Cycles,
		remote:         r.RemoteRequests,
		latSum:         r.RequestLatency.Sum(),
		latCount:       r.RequestLatency.Count(),
		sent:           r.NoC.Sent,
		delivered:      r.NoC.Delivered,
		injectRejects:  r.NoC.InjectRejects,
		deliverRetries: r.NoC.DeliverRetries,
		failed:         r.FailedRequests,
		retried:        r.RetriedRequests,
	}
	if r.Chaos != nil {
		p.linkStalls = r.Chaos.LinkStalls
	}
	_, p.chaosStallCycles = r.NoC.StallCycles()
	return p
}

// routedConfig is an n-node system with one routed fabric.
func routedConfig(nodes, cores int, topo string, lat sim.Cycle, bw int) Config {
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	cfg.CoresPerNode = cores
	cfg.NoC = noc.Config{Topology: topo, LinkLatency: lat, LinkBandwidth: bw}
	return cfg
}

// refusalConfig shrinks the injection queue and router buffers until
// the fabric refuses sends by the hundreds.
func refusalConfig(topo string) Config {
	cfg := routedConfig(8, 1, topo, 5, 1)
	cfg.NoC.InjectDepth = 1
	cfg.NoC.BufferFlits = 8
	return cfg
}

func chaosConfig(preset string, seed uint64) func() Config {
	return func() Config {
		p, err := chaos.ParseProfile(preset)
		if err != nil {
			panic(err)
		}
		p.LinkRate = 0.05
		p.LinkStall = 150
		p.Seed = seed
		cfg := routedConfig(8, 1, noc.Ring, 5, 1)
		cfg.Chaos = p
		return cfg
	}
}

func kindConfig(kind cpu.CoalescerKind) func() Config {
	return func() Config {
		cfg := DefaultConfig()
		cfg.Nodes = 4
		cfg.CoresPerNode = 2
		cfg.Kind = kind
		return cfg
	}
}

func retryConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.CoresPerNode = 2
	cfg.HMC.Faults.CRCErrorRate = 0.3
	cfg.HMC.Faults.RetryLimit = 1
	cfg.HMC.Faults.Seed = 5
	cfg.Retry = memreq.RetryPolicy{MaxRetries: 8, Backoff: 16}
	return cfg
}

var (
	mix11 = func() *trace.Trace { return goldMixTrace(11, 8, 600) }
	mix7  = func() *trace.Trace { return goldMixTrace(7, 8, 400) }
	mix3  = func() *trace.Trace { return goldMixTrace(3, 8, 800) }
	seq8  = func() *trace.Trace { return goldTrace(8, 48) }
)

// Columns: cycles, remote, latency sum/count, NoC sent/delivered/
// inject rejects/deliver retries, failed, retried, chaos link stalls,
// chaos stall cycles.
var pinnedCases = []pinnedCase{
	{"ring", func() Config { return routedConfig(8, 2, noc.Ring, 5, 1) }, mix11, pinnedResult{969, 529, 282500, 600, 1070, 1070, 13, 0, 0, 0, 0, 0}},
	{"mesh", func() Config { return routedConfig(8, 2, noc.Mesh, 5, 1) }, mix11, pinnedResult{949, 529, 275041, 600, 1070, 1070, 0, 0, 0, 0, 0, 0}},
	{"mesh-16n", func() Config { return routedConfig(16, 1, noc.Mesh, 3, 2) },
		func() *trace.Trace { return goldTrace(16, 48) }, pinnedResult{24475, 720, 11603486, 768, 1440, 1440, 1433, 1493, 0, 0, 0, 0}},
	{"chaos-mild-1", chaosConfig("mild", 1), seq8, pinnedResult{22476, 336, 4219120, 384, 672, 672, 1485, 0, 0, 0, 1143, 21214}},
	{"chaos-mild-42", chaosConfig("mild", 42), seq8, pinnedResult{20470, 336, 3839610, 384, 672, 672, 348, 142, 0, 0, 976, 14392}},
	{"chaos-mild-9001", chaosConfig("mild", 9001), seq8, pinnedResult{22222, 336, 4081570, 384, 672, 672, 898, 49, 0, 0, 1087, 17998}},
	{"chaos-storm-1", chaosConfig("storm", 1), seq8, pinnedResult{22358, 336, 4098596, 384, 672, 672, 621, 59, 0, 0, 1142, 19758}},
	{"chaos-storm-42", chaosConfig("storm", 42), seq8, pinnedResult{20965, 336, 3854921, 384, 672, 672, 649, 131, 0, 0, 1048, 15899}},
	{"chaos-storm-9001", chaosConfig("storm", 9001), seq8, pinnedResult{22316, 336, 3915206, 384, 672, 672, 814, 114, 0, 0, 1125, 18758}},
	{"retry", retryConfig, func() *trace.Trace { return goldTrace(8, 64) }, pinnedResult{27796, 384, 7110920, 512, 1014, 1014, 0, 9398, 0, 137, 0, 0}},
	{"kind-mac", kindConfig(cpu.WithMAC), mix7, pinnedResult{1430, 293, 345602, 400, 594, 594, 0, 0, 0, 0, 0, 0}},
	{"kind-raw", kindConfig(cpu.WithoutMAC), mix7, pinnedResult{1411, 293, 341231, 400, 586, 586, 0, 0, 0, 0, 0, 0}},
	{"kind-mshr", kindConfig(cpu.WithMSHR), mix7, pinnedResult{1724, 293, 386065, 400, 586, 586, 0, 0, 0, 0, 0, 0}},
	{"kind-warp", kindConfig(cpu.WithWarp), mix7, pinnedResult{4023, 293, 830623, 400, 586, 586, 0, 0, 0, 0, 0, 0}},
	{"kind-memcache", kindConfig(cpu.WithMemCache), mix7, pinnedResult{1890, 293, 390612, 400, 586, 586, 0, 0, 0, 0, 0, 0}},
	{"refuse-ring", func() Config { return refusalConfig(noc.Ring) }, mix3, pinnedResult{1054, 696, 401330, 800, 1409, 1409, 1405, 0, 0, 0, 0, 0}},
	{"refuse-mesh", func() Config { return refusalConfig(noc.Mesh) }, mix3, pinnedResult{1065, 696, 398070, 800, 1409, 1409, 561, 0, 0, 0, 0, 0}},
}

// TestPinnedConfigurations replays every pinnedCase and requires the
// captured numbers exactly.
func TestPinnedConfigurations(t *testing.T) {
	for _, c := range pinnedCases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Run(c.cfg(), c.tr())
			if err != nil {
				t.Fatal(err)
			}
			if got := pinnedOf(res); got != c.want {
				t.Errorf("got  %+v\nwant %+v", got, c.want)
			}
		})
	}
}
