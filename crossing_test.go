package mac3d

import (
	"fmt"
	"testing"

	"mac3d/internal/audit"
	"mac3d/internal/cpu"
	"mac3d/internal/noc"
)

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

// runMeshAudit replays b's trace with the lifecycle audit on, on a lone
// node or, for nodes > 1, on a mesh of nodes each lowered from opts
// like a single-node run, and returns the machine-wide audit report.
func runMeshAudit(opts RunOptions, b *TraceBuilder, nodes int) (*audit.Report, error) {
	rc, err := opts.withDefaults().runConfig(runNames)
	if err != nil {
		return nil, err
	}
	rc.Audit = true
	var net *noc.Config
	if nodes > 1 {
		net = &noc.Config{Topology: noc.Mesh, Nodes: nodes, LinkLatency: 8}
	}
	m, err := cpu.Build(rc, net)
	if err != nil {
		return nil, err
	}
	if err := m.Load(b.trace()); err != nil {
		return nil, err
	}
	rs, err := m.Run()
	if err != nil {
		return nil, err
	}
	return rs[0].Audit, nil
}

// TestCrossingAccessesAuditClean runs each crossing trace under every
// design with the lifecycle audit on, on one node through the facade
// and on 2- and 4-node meshes: every requested byte must be delivered
// by the transaction that retires the request, wherever it is served.
func TestCrossingAccessesAuditClean(t *testing.T) {
	for _, tc := range crossingTraces {
		for _, d := range Designs() {
			for _, nodes := range []int{1, 2, 4} {
				name := tc.name + "/" + d.String()
				if nodes > 1 {
					name += fmt.Sprintf("/mesh%d", nodes)
				}
				t.Run(name, func(t *testing.T) {
					b, err := NewTraceBuilder(2, 1)
					if err != nil {
						t.Fatal(err)
					}
					base := (b.Alloc(1024) + 255) &^ 255
					if err := tc.build(b, base); err != nil {
						t.Fatal(err)
					}
					if nodes == 1 {
						rep, err := RunTrace(RunOptions{Design: d, Audit: true}, b)
						if err != nil {
							t.Fatal(err)
						}
						if !rep.Audit.Ok() {
							t.Fatalf("audit: %v", rep.Audit.Violations)
						}
						return
					}
					a, err := runMeshAudit(RunOptions{Design: d}, b, nodes)
					if err != nil {
						t.Fatal(err)
					}
					if !a.Ok() || a.Issued == 0 || a.Delivered != a.Issued {
						t.Fatalf("audit: %s\n%s", a, a.Diff())
					}
				})
			}
		}
	}
}
