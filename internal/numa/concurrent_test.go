package numa

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mac3d/internal/cpu"
	"mac3d/internal/trace"
)

// concurrentRuns is how many independent Systems each case runs at
// once on separate goroutines.
const concurrentRuns = 3

// checkParallel runs cfg once on its own, then concurrentRuns times at
// once, and requires every concurrent Result — counters, per-node
// snapshots, NoC stats including histograms, chaos stats — to be
// deeply equal to the lone run. Host cores are used by running whole
// simulations in parallel (cmd/experiments -parallel, the macd worker
// pool), so a System must share no mutable state with another; under
// -race a shared write is also reported. It returns the concurrent
// results so callers can check them against pinned values.
func checkParallel(t *testing.T, cfg func() Config, tr func() *trace.Trace) []*Result {
	t.Helper()
	seq, err := Run(cfg(), tr())
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	results := make([]*Result, concurrentRuns)
	errs := make([]error, concurrentRuns)
	var wg sync.WaitGroup
	for i := range results {
		c, tc := cfg(), tr()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Run(c, tc)
		}(i)
	}
	wg.Wait()
	for i, par := range results {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("concurrent run %d diverged from sequential:\n  seq %s\n  par %s", i, summary(seq), summary(par))
		}
	}
	return results
}

func summary(r *Result) string {
	return fmt.Sprintf("cycles=%d remote=%d latSum=%d latCount=%d nocSent=%d nocDelivered=%d",
		r.Cycles, r.RemoteRequests, r.RequestLatency.Sum(), r.RequestLatency.Count(),
		r.NoC.Sent, r.NoC.Delivered)
}

// TestParallelMatchesSequentialGolden runs every golden capture (plus
// the RAQ-saturating shape) concurrently: each run must reproduce the
// pinned pre-NoC numbers, not just agree with the lone run.
func TestParallelMatchesSequentialGolden(t *testing.T) {
	cases := append(append([]goldenCase{}, goldenCases...), saturatedCase)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, res := range checkParallel(t, c.config, c.tr) {
				c.check(t, res)
			}
		})
	}
}

// checkPinnedParallel runs the pinnedCase called name through
// checkParallel and holds every concurrent run to its captured numbers.
func checkPinnedParallel(t *testing.T, name string) {
	t.Helper()
	for _, c := range pinnedCases {
		if c.name != name {
			continue
		}
		for _, res := range checkParallel(t, c.cfg, c.tr) {
			if got := pinnedOf(res); got != c.want {
				t.Errorf("got  %+v\nwant %+v", got, c.want)
			}
		}
		return
	}
	t.Fatalf("no pinned case %q", name)
}

// TestParallelMatchesSequentialRouted covers the routed topologies,
// whose routers and credit state must belong to one System only.
func TestParallelMatchesSequentialRouted(t *testing.T) {
	for _, name := range []string{"ring", "mesh", "mesh-16n"} {
		t.Run(name, func(t *testing.T) { checkPinnedParallel(t, name) })
	}
}

// TestParallelMatchesSequentialChaos: chaos runs, whose RNG schedules
// are order-sensitive, replay bit-for-bit when other chaos runs share
// the host, across the mild and storm presets (overlaid with the link
// stressor) and a seed sweep.
func TestParallelMatchesSequentialChaos(t *testing.T) {
	for _, preset := range []string{"mild", "storm"} {
		for _, seed := range []uint64{1, 42, 9001} {
			t.Run(preset, func(t *testing.T) {
				checkPinnedParallel(t, fmt.Sprintf("chaos-%s-%d", preset, seed))
			})
		}
	}
}

// TestParallelMatchesSequentialRetry exercises the retry path:
// CRC-poisoned completions re-issue identically in concurrent runs.
func TestParallelMatchesSequentialRetry(t *testing.T) {
	checkPinnedParallel(t, "retry")
}

// TestParallelMatchesSequentialKinds runs the check across every
// coalescer frontend, including the warp frontend's suspend/resume
// scoreboard and the memcache frontend's zero-target writebacks.
func TestParallelMatchesSequentialKinds(t *testing.T) {
	for _, kind := range cpu.Kinds() {
		t.Run(kind.String(), func(t *testing.T) { checkPinnedParallel(t, "kind-"+kind.String()) })
	}
}
