package cpu

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"mac3d/internal/trace"
	"mac3d/internal/workloads"
)

// pinMixTrace is a TraceBuilder-style mix on four threads: naturally
// aligned loads and stores of 4, 8 and 16 bytes over a shared array,
// 8B-aligned atomics on a counter block, and a fence every 16 accesses.
func pinMixTrace() *trace.Trace {
	ctx := workloads.NewContext(workloads.Config{Threads: 4, Seed: 5, Scale: workloads.Tiny})
	data := ctx.Alloc(16<<10, 64)
	counters := ctx.Alloc(256, 64)
	rng := ctx.RNG()
	for i := 0; i < 96; i++ {
		for tid := 0; tid < ctx.Threads(); tid++ {
			ctx.Work(tid, int(rng.Uint64()%4))
			a := data + rng.Uint64()%(16<<10)
			switch r := rng.Uint64() % 10; {
			case r < 4:
				ctx.Load(tid, a&^7, 8)
			case r < 6:
				ctx.Store(tid, a&^7, 8)
			case r < 7:
				ctx.Load(tid, a&^15, 16)
			case r < 8:
				ctx.Store(tid, a&^3, 4)
			default:
				ctx.Atomic(tid, counters+rng.Uint64()%256&^7, 8)
			}
			if i%16 == 15 {
				ctx.Fence(tid)
			}
		}
	}
	return ctx.Trace()
}

// pinLine renders the parts of a run the per-kind pins hold: makespan,
// latency sum, device data and control bytes, and the coalescer's full
// memreq.Stats, Warp and MemCache sub-stats included.
func pinLine(res *Result) string {
	s := &res.Coalescer
	sizes := make([]uint32, 0, len(s.BuiltBySizeBytes))
	for k := range s.BuiltBySizeBytes {
		sizes = append(sizes, k)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d lat=%d data=%d ctrl=%d raw=%d ld=%d st=%d at=%d fence=%d tx=%d byp=%d sizes=",
		res.Cycles, res.RequestLatency.Sum(), res.Device.DataBytes, res.Device.ControlBytes,
		s.RawRequests, s.RawLoads, s.RawStores, s.RawAtomics, s.Fences, s.Transactions, s.Bypassed)
	for i, k := range sizes {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d:%d", k, s.BuiltBySizeBytes[k])
	}
	fmt.Fprintf(&b, " tpt=%d/%d rej=%d", s.TargetsPerTx.Count(), s.TargetsPerTx.Sum(), s.PushRejects)
	if w := s.Warp; w != nil {
		fmt.Fprintf(&b, " warp=%d/%d/%d/%d/%d/%d", w.WarpsFormed, w.WarpsSuspended, w.SameAddrTx, w.SameBlockTx,
			w.MasksPerWarp.Count(), w.MasksPerWarp.Sum())
	}
	if m := s.MemCache; m != nil {
		fmt.Fprintf(&b, " memcache=%d/%d/%d/%d/%d", m.Hits, m.Misses, m.MergedMisses, m.Writebacks, m.DirectAccesses)
	}
	return b.String()
}

// kindPins holds pinLine for each trace/kind row of TestKindsPinned.
// mix/raw ran in 13936 cycles (same latency sum) before the raw path
// took the shared held-fence rule, under which popping a fence ends the
// cycle: the request behind each of the trace's 24 fences may now leave
// one cycle later.
var kindPins = map[string]string{
	"mix/mac":       "cycles=14083 lat=701923 data=6400 ctrl=12160 raw=384 ld=194 st=118 at=72 fence=24 tx=380 byp=376 sizes=16:376,64:2,128:2 tpt=380/384 rej=10632",
	"mix/raw":       "cycles=13939 lat=696922 data=6144 ctrl=12288 raw=384 ld=194 st=118 at=72 fence=24 tx=384 byp=0 sizes=16:384 tpt=384/384 rej=0",
	"mix/mshr":      "cycles=14020 lat=692451 data=20608 ctrl=12032 raw=384 ld=194 st=118 at=72 fence=24 tx=376 byp=72 sizes=16:72,64:304 tpt=376/384 rej=0",
	"mix/warp":      "cycles=19765 lat=981661 data=6128 ctrl=12256 raw=384 ld=194 st=118 at=72 fence=24 tx=383 byp=72 sizes=16:383 tpt=383/384 rej=0 warp=194/194/311/0/194/311",
	"mix/memcache":  "cycles=13949 lat=683187 data=10160 ctrl=12064 raw=384 ld=194 st=118 at=72 fence=24 tx=377 byp=72 sizes=16:291,64:86 tpt=377/384 rej=0 memcache=56/86/7/0/163",
	"zipf/mac":      "cycles=36358 lat=19813297 data=181440 ctrl=54240 raw=5366 ld=4096 st=1270 at=0 fence=0 tx=1695 byp=892 sizes=16:892,64:74,128:189,256:540 tpt=1695/5366 rej=27228",
	"zipf/raw":      "cycles=361969 lat=90409116 data=85856 ctrl=171712 raw=5366 ld=4096 st=1270 at=0 fence=0 tx=5366 byp=0 sizes=16:5366 tpt=5366/5366 rej=344190",
	"zipf/mshr":     "cycles=62921 lat=10467691 data=176192 ctrl=88096 raw=5366 ld=4096 st=1270 at=0 fence=0 tx=2753 byp=0 sizes=64:2753 tpt=2753/5366 rej=56202",
	"zipf/warp":     "cycles=299845 lat=40417495 data=82080 ctrl=154944 raw=5366 ld=4096 st=1270 at=0 fence=0 tx=4842 byp=0 sizes=16:4554,32:288 tpt=4842/5366 rej=289418 warp=2102/2102/4554/288/2102/4842",
	"zipf/memcache": "cycles=361969 lat=90536232 data=90800 ctrl=169888 raw=5366 ld=4096 st=1270 at=0 fence=0 tx=5309 byp=0 sizes=16:5187,64:122 tpt=5309/5366 rej=343374 memcache=943/122/57/0/4244",
	"sg/mac":        "cycles=10284 lat=3762696 data=192928 ctrl=91584 raw=6144 ld=4096 st=2048 at=0 fence=0 tx=2862 byp=1158 sizes=16:1158,64:1065,128:448,256:191 tpt=2862/6144 rej=3511",
	"sg/raw":        "cycles=33124 lat=8202221 data=98304 ctrl=196608 raw=6144 ld=4096 st=2048 at=0 fence=0 tx=6144 byp=0 sizes=16:6144 tpt=6144/6144 rej=25629",
	"sg/mshr":       "cycles=34745 lat=5807036 data=223872 ctrl=111936 raw=6144 ld=4096 st=2048 at=0 fence=0 tx=3498 byp=0 sizes=64:3498 tpt=3498/6144 rej=27951",
	"sg/warp":       "cycles=212690 lat=28730705 data=98288 ctrl=196512 raw=6144 ld=4096 st=2048 at=0 fence=0 tx=6141 byp=0 sizes=16:6139,32:2 tpt=6141/6144 rej=203949 warp=2773/2773/6139/2/2773/6141",
	"sg/memcache":   "cycles=31680 lat=8283232 data=91936 ctrl=147392 raw=6144 ld=4096 st=2048 at=0 fence=0 tx=4606 byp=0 sizes=16:4226,64:380 tpt=4606/6144 rej=23820 memcache=1117/380/1538/0/3109",
}

// TestKindsPinned pins every coalescer kind on three traces so a change
// to the frontends' shared bookkeeping (push, dispatch and completion
// accounting, the held-fence rule, FLIT sizing, the target-slab pool)
// cannot move a statistic unseen.
func TestKindsPinned(t *testing.T) {
	wl := func(name string) func() (*trace.Trace, error) {
		return func() (*trace.Trace, error) {
			return workloads.Generate(name, workloads.Config{Threads: 8, Seed: 1, Scale: workloads.Tiny})
		}
	}
	traces := []struct {
		name string
		gen  func() (*trace.Trace, error)
	}{
		{"mix", func() (*trace.Trace, error) { return pinMixTrace(), nil }},
		{"zipf", wl("zipf")},
		{"sg", wl("sg")},
	}
	for _, tc := range traces {
		tr, err := tc.gen()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range Kinds() {
			name := tc.name + "/" + k.String()
			t.Run(name, func(t *testing.T) {
				cfg := DefaultRunConfig()
				cfg.Kind = k
				res, err := Run(cfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				if got := pinLine(res); got != kindPins[name] {
					t.Errorf("\n got %s\nwant %s", got, kindPins[name])
				}
			})
		}
	}
}
