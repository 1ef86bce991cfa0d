package hmc

import (
	"testing"

	"mac3d/internal/sim"
)

// TestDeviceSteadyStateAllocFree holds the device to zero allocations
// per cycle once warm, on the direct-dispatch cube and on the routed
// ring: Submit parks responses in a typed heap and the fabric's rings,
// and Tick hands them back in a device-owned buffer.
func TestDeviceSteadyStateAllocFree(t *testing.T) {
	for _, cube := range []string{"ideal", "ring,page=open"} {
		t.Run(cube, func(t *testing.T) {
			cfg := DefaultConfig()
			c, err := ParseCubeConfig(cube)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Cube = c
			d := MustNewDevice(cfg)
			var now sim.Cycle
			var tag, done uint64
			step := func() {
				for end := now + 64; now < end; now++ {
					if d.CanAccept() {
						tag++
						d.Submit(Request{Kind: Read, Addr: tag * 4160, Data: 64, Tag: tag}, now)
					}
					done += uint64(len(d.Tick(now)))
				}
			}
			for i := 0; i < 50; i++ {
				step() // warm: heap, rings and the Tick buffer reach their working size
			}
			if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
				t.Fatalf("%.0f allocations per 64 loaded cycles, want 0", allocs)
			}
			if done == 0 {
				t.Fatal("no responses delivered")
			}
		})
	}
}
