package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for symbol, want := range map[string]string{
		"mac3d/internal/core.(*ARQ).Push":                                             "core",
		"mac3d/internal/noc.(*routed[go.shape.struct { mac3d/internal/hmc.x }]).Tick": "noc",
		"mac3d/internal/stats.(*Histogram).Observe":                                   "other",
		"runtime.mallocgc":                       "runtime",
		"internal/runtime/atomic.(*Uint32).Load": "runtime",
		"container/heap.Push":                    "other",
		"main.spin":                              "other",
	} {
		if got := layerOf(symbol); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", symbol, got, want)
		}
	}
}

var spinSink uint64

func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			spinSink = spinSink*6364136223846793005 + 1442695040888963407
		}
	}
}

func TestLeafLayerSamplesDecodesAProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	counts := map[string]int{}
	if err := leafLayerSamples(buf.Bytes(), counts); err != nil {
		t.Fatal(err)
	}
	if counts["other"] == 0 {
		t.Fatalf("no samples attributed to the spinning test code: %v", counts)
	}
}
