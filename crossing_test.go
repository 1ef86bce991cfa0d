package mac3d

import "testing"

// crossingTraces are the accesses that run past the unit a design
// sizes its transactions by: an 8B atomic at FLIT offset 12 spans two
// FLITs, and a 16B load at offset 0xfa of a 256B row runs past both
// its 64B line and the row. The merge case dispatches a line for an
// aligned load first, so the crossing load behind it must not ride
// that line's transaction.
var crossingTraces = []struct {
	name  string
	build func(b *TraceBuilder, base uint64) error
}{
	{"atomic-flit-offset-12", func(b *TraceBuilder, base uint64) error {
		return b.Atomic(0, base+12, 8)
	}},
	{"load-row-offset-0xfa", func(b *TraceBuilder, base uint64) error {
		return b.Load(0, base+0xfa, 16)
	}},
	{"load-behind-line", func(b *TraceBuilder, base uint64) error {
		if err := b.Load(0, base+0xc0, 8); err != nil {
			return err
		}
		if err := b.Load(1, base+0xfa, 16); err != nil {
			return err
		}
		return b.Store(1, base+0x3c, 8)
	}},
}

// TestCrossingAccessesAuditClean runs each crossing trace under every
// design with the lifecycle audit on: every requested byte must be
// delivered by the transaction that retires the request.
func TestCrossingAccessesAuditClean(t *testing.T) {
	for _, tc := range crossingTraces {
		for _, d := range Designs() {
			t.Run(tc.name+"/"+d.String(), func(t *testing.T) {
				b, err := NewTraceBuilder(2, 1)
				if err != nil {
					t.Fatal(err)
				}
				base := (b.Alloc(1024) + 255) &^ 255
				if err := tc.build(b, base); err != nil {
					t.Fatal(err)
				}
				rep, err := RunTrace(RunOptions{Design: d, Audit: true}, b)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Audit.Ok() {
					t.Fatalf("audit: %v", rep.Audit.Violations)
				}
			})
		}
	}
}
