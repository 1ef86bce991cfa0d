package coalesce

import (
	"testing"

	"mac3d/internal/hmc"
	"mac3d/internal/memreq"
	"mac3d/internal/sim"
)

func drain(c memreq.Coalescer, maxCycles sim.Cycle, complete bool) []memreq.Built {
	var out []memreq.Built
	for now := sim.Cycle(0); now < maxCycles; now++ {
		got := c.Tick(now)
		for i := range got {
			out = append(out, got[i])
			if complete {
				c.Completed(&out[len(out)-1])
			}
		}
		if c.Pending() == 0 {
			break
		}
	}
	return out
}

func TestNullPassThroughOneToOne(t *testing.T) {
	n := NewNull(DefaultNullConfig())
	for i := 0; i < 8; i++ {
		// All in the same row: Null must NOT coalesce them.
		if !n.Push(memreq.RawRequest{Addr: uint64(i * 16), Size: 8, Tag: uint16(i)}, 0) {
			t.Fatalf("push %d rejected", i)
		}
	}
	out := drain(n, 100, true)
	if len(out) != 8 {
		t.Fatalf("transactions = %d, want 8", len(out))
	}
	for _, b := range out {
		if b.Req.Data != 16 {
			t.Fatalf("raw transaction size %d, want 16", b.Req.Data)
		}
		if len(b.Targets) != 1 {
			t.Fatalf("targets = %d", len(b.Targets))
		}
	}
	if eff := n.Stats().CoalescingEfficiency(); eff != 0 {
		t.Fatalf("null efficiency = %v, want 0", eff)
	}
}

func TestNullIssueRate(t *testing.T) {
	n := NewNull(DefaultNullConfig())
	for i := 0; i < 5; i++ {
		n.Push(memreq.RawRequest{Addr: uint64(i * 4096), Size: 8}, 0)
	}
	if got := len(n.Tick(0)); got != 1 {
		t.Fatalf("tick emitted %d, want 1", got)
	}
}

func TestNullPreservesKinds(t *testing.T) {
	n := NewNull(DefaultNullConfig())
	n.Push(memreq.RawRequest{Addr: 0, Size: 8}, 0)
	n.Push(memreq.RawRequest{Addr: 16, Size: 8, Store: true}, 0)
	n.Push(memreq.RawRequest{Addr: 32, Size: 8, Atomic: true}, 0)
	out := drain(n, 50, true)
	if len(out) != 3 {
		t.Fatalf("%d transactions", len(out))
	}
	kinds := []hmc.Kind{out[0].Req.Kind, out[1].Req.Kind, out[2].Req.Kind}
	want := []hmc.Kind{hmc.Read, hmc.Write, hmc.AtomicOp}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kind %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestNullFenceBlocksUntilDrained(t *testing.T) {
	n := NewNull(DefaultNullConfig())
	n.Push(memreq.RawRequest{Addr: 0, Size: 8, Tag: 1}, 0)
	n.Push(memreq.RawRequest{Fence: true}, 0)
	n.Push(memreq.RawRequest{Addr: 4096, Size: 8, Tag: 2}, 0)
	first := n.Tick(0)
	if len(first) != 1 {
		t.Fatalf("first tick: %d", len(first))
	}
	for now := sim.Cycle(1); now < 10; now++ {
		if got := n.Tick(now); len(got) != 0 {
			t.Fatal("crossed fence while outstanding")
		}
	}
	n.Completed(&first[0])
	var after []memreq.Built
	for now := sim.Cycle(10); now < 20 && len(after) == 0; now++ {
		after = n.Tick(now)
	}
	if len(after) != 1 || after[0].Req.Addr != 4096 {
		t.Fatalf("post-fence = %+v", after)
	}
}

func TestMSHRMergesOutstandingLine(t *testing.T) {
	m := NewMSHR(DefaultMSHRConfig())
	// Three loads in the same 64B line: one 64B transaction.
	m.Push(memreq.RawRequest{Addr: 0x100, Size: 8, Tag: 1}, 0)
	m.Push(memreq.RawRequest{Addr: 0x108, Size: 8, Tag: 2}, 0)
	m.Push(memreq.RawRequest{Addr: 0x140, Size: 8, Tag: 3}, 0) // next line

	var built []memreq.Built
	for now := sim.Cycle(0); now < 10; now++ {
		got := m.Tick(now)
		built = append(built, got...)
	}
	if len(built) != 2 {
		t.Fatalf("transactions = %d, want 2", len(built))
	}
	if built[0].Req.Data != 64 || built[1].Req.Data != 64 {
		t.Fatal("MSHR must emit fixed 64B lines")
	}
	// Completing the first line folds the merged target in.
	m.Completed(&built[0])
	if len(built[0].Targets) != 2 {
		t.Fatalf("line 0 targets = %d, want 2", len(built[0].Targets))
	}
	m.Completed(&built[1])
	if len(built[1].Targets) != 1 {
		t.Fatalf("line 1 targets = %d, want 1", len(built[1].Targets))
	}
	if eff := m.Stats().CoalescingEfficiency(); eff <= 0 {
		t.Fatalf("MSHR efficiency = %v, want > 0", eff)
	}
}

func TestMSHRStopsMergingAfterCompletion(t *testing.T) {
	// §2.3: merging only happens while the original miss is
	// outstanding. A request after completion issues a new line.
	m := NewMSHR(DefaultMSHRConfig())
	m.Push(memreq.RawRequest{Addr: 0x100, Size: 8, Tag: 1}, 0)
	first := m.Tick(0)
	if len(first) != 1 {
		t.Fatal("no dispatch")
	}
	m.Completed(&first[0])
	m.Push(memreq.RawRequest{Addr: 0x108, Size: 8, Tag: 2}, 1)
	second := m.Tick(1)
	if len(second) != 1 {
		t.Fatalf("post-completion request did not redispatch (%d)", len(second))
	}
	m.Completed(&second[0])
	if m.Stats().Transactions != 2 {
		t.Fatalf("transactions = %d, want 2", m.Stats().Transactions)
	}
}

func TestMSHRSeparatesLoadStoreLines(t *testing.T) {
	m := NewMSHR(DefaultMSHRConfig())
	m.Push(memreq.RawRequest{Addr: 0x100, Size: 8, Tag: 1}, 0)
	m.Push(memreq.RawRequest{Addr: 0x108, Size: 8, Store: true, Tag: 2}, 0)
	var built []memreq.Built
	for now := sim.Cycle(0); now < 10; now++ {
		built = append(built, m.Tick(now)...)
	}
	if len(built) != 2 {
		t.Fatalf("load+store same line: %d transactions, want 2", len(built))
	}
}

func TestMSHRStructuralStallWhenFull(t *testing.T) {
	cfg := DefaultMSHRConfig()
	cfg.Entries = 1
	m := NewMSHR(cfg)
	m.Push(memreq.RawRequest{Addr: 0x000, Size: 8, Tag: 1}, 0)
	m.Push(memreq.RawRequest{Addr: 0x400, Size: 8, Tag: 2}, 0)
	first := m.Tick(0)
	if len(first) != 1 {
		t.Fatal("no dispatch")
	}
	// Second line cannot dispatch: the single MSHR is busy.
	for now := sim.Cycle(1); now < 5; now++ {
		if got := m.Tick(now); len(got) != 0 {
			t.Fatal("dispatched past full MSHR file")
		}
	}
	m.Completed(&first[0])
	var second []memreq.Built
	for now := sim.Cycle(5); now < 10 && len(second) == 0; now++ {
		second = m.Tick(now)
	}
	if len(second) != 1 {
		t.Fatal("stalled request never dispatched")
	}
}

func TestMSHRFullFileStillMerges(t *testing.T) {
	// Boundary of the structural stall: a completely full MSHR file
	// blocks new line allocations but must keep merging requests onto
	// its outstanding lines.
	cfg := DefaultMSHRConfig()
	cfg.Entries = 1
	m := NewMSHR(cfg)
	m.Push(memreq.RawRequest{Addr: 0x100, Size: 8, Tag: 1}, 0)
	first := m.Tick(0)
	if len(first) != 1 {
		t.Fatal("no dispatch")
	}
	// File full; same-line request merges anyway.
	m.Push(memreq.RawRequest{Addr: 0x108, Size: 8, Tag: 2}, 1)
	if got := m.Tick(1); len(got) != 0 {
		t.Fatal("merge dispatched a transaction")
	}
	// New-line request stalls behind the full file.
	m.Push(memreq.RawRequest{Addr: 0x400, Size: 8, Tag: 3}, 2)
	if got := m.Tick(2); len(got) != 0 {
		t.Fatal("allocated past a full MSHR file")
	}
	m.Completed(&first[0])
	if len(first[0].Targets) != 2 {
		t.Fatalf("targets = %d, want the merged pair", len(first[0].Targets))
	}
	var second []memreq.Built
	for now := sim.Cycle(3); now < 10 && len(second) == 0; now++ {
		second = m.Tick(now)
	}
	if len(second) != 1 || second[0].Req.Addr != 0x400 {
		t.Fatalf("stalled line = %+v", second)
	}
}

func TestMSHRAtomicBypasses(t *testing.T) {
	m := NewMSHR(DefaultMSHRConfig())
	m.Push(memreq.RawRequest{Addr: 0x100, Size: 8, Atomic: true, Tag: 1}, 0)
	out := m.Tick(0)
	if len(out) != 1 || out[0].Req.Kind != hmc.AtomicOp || !out[0].Bypassed {
		t.Fatalf("atomic = %+v", out)
	}
	m.Completed(&out[0])
}

func TestMSHRFence(t *testing.T) {
	m := NewMSHR(DefaultMSHRConfig())
	m.Push(memreq.RawRequest{Addr: 0x100, Size: 8, Tag: 1}, 0)
	m.Push(memreq.RawRequest{Fence: true}, 0)
	m.Push(memreq.RawRequest{Addr: 0x400, Size: 8, Tag: 2}, 0)
	first := m.Tick(0)
	if len(first) != 1 {
		t.Fatal("no dispatch")
	}
	for now := sim.Cycle(1); now < 5; now++ {
		if got := m.Tick(now); len(got) != 0 {
			t.Fatal("crossed fence")
		}
	}
	m.Completed(&first[0])
	var second []memreq.Built
	for now := sim.Cycle(5); now < 10 && len(second) == 0; now++ {
		second = m.Tick(now)
	}
	if len(second) != 1 || second[0].Req.Addr != 0x400 {
		t.Fatalf("post-fence = %+v", second)
	}
}

func TestMSHRMaxMergesBound(t *testing.T) {
	cfg := DefaultMSHRConfig()
	cfg.MaxMerges = 2
	m := NewMSHR(cfg)
	m.Push(memreq.RawRequest{Addr: 0x100, Size: 8, Tag: 1}, 0)
	m.Push(memreq.RawRequest{Addr: 0x108, Size: 8, Tag: 2}, 0)
	m.Push(memreq.RawRequest{Addr: 0x110, Size: 8, Tag: 3}, 0)
	first := m.Tick(0) // dispatch line with tag 1
	m.Tick(1)          // merge tag 2
	// Tag 3 exceeds MaxMerges: it stalls until the line completes.
	if got := m.Tick(2); len(got) != 0 {
		t.Fatal("exceeded MaxMerges")
	}
	m.Completed(&first[0])
	if len(first[0].Targets) != 2 {
		t.Fatalf("targets = %d, want 2", len(first[0].Targets))
	}
	var second []memreq.Built
	for now := sim.Cycle(3); now < 10 && len(second) == 0; now++ {
		second = m.Tick(now)
	}
	if len(second) != 1 {
		t.Fatal("overflow request never dispatched")
	}
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultMSHRConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []MSHRConfig{
		{Entries: 0, LineBytes: 64, MaxMerges: 1, QueueDepth: 1},
		{Entries: 1, LineBytes: 60, MaxMerges: 1, QueueDepth: 1},
		{Entries: 1, LineBytes: 64, MaxMerges: 0, QueueDepth: 1},
		{Entries: 1, LineBytes: 64, MaxMerges: 1, QueueDepth: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestResets(t *testing.T) {
	n := NewNull(DefaultNullConfig())
	n.Push(memreq.RawRequest{Addr: 0x100, Size: 8}, 0)
	n.Reset()
	if n.Pending() != 0 || n.Inflight() != 0 || n.Stats().RawRequests != 0 {
		t.Fatal("null reset incomplete")
	}

	m := NewMSHR(DefaultMSHRConfig())
	m.Push(memreq.RawRequest{Addr: 0x100, Size: 8}, 0)
	m.Tick(0)
	m.Reset()
	if m.Pending() != 0 || m.Inflight() != 0 || m.Stats().RawRequests != 0 {
		t.Fatal("mshr reset incomplete")
	}
}
