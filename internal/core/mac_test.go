package core

import (
	"testing"

	"mac3d/internal/addr"
	"mac3d/internal/hmc"
	"mac3d/internal/memreq"
	"mac3d/internal/sim"
)

// runMAC ticks the unit until idle (or maxCycles) collecting output.
func runMAC(m *MAC, maxCycles sim.Cycle) []memreq.Built {
	var out []memreq.Built
	for now := sim.Cycle(0); now < maxCycles; now++ {
		got := m.Tick(now)
		out = append(out, got...)
		// Completions arrive "instantly" for these unit tests.
		for i := range got {
			m.Completed(&got[i])
		}
		if m.Pending() == 0 {
			break
		}
	}
	return out
}

func testMAC(fill bool) *MAC {
	cfg := DefaultConfig()
	cfg.ARQ.FillMode = fill
	return MustNew(cfg)
}

func TestBuilderPipelineLatency(t *testing.T) {
	win, _ := NewWindow(256)
	b := NewBuilder(win)
	e := arqEntry{tag: addr.Tag(0xA00, false), fmap: WideMap(0).Set(6).Set(8).Set(9)}
	e.targets = []memreq.Target{{}, {}, {}}
	if !b.CanAccept(0) {
		t.Fatal("fresh builder cannot accept")
	}
	b.Accept(e, 0)
	// Stage 1 finishes at cycle 1, stage 2 at cycle 3 (lookup+build):
	// the transaction appears on the cycle-3 tick.
	for now := sim.Cycle(0); now < 3; now++ {
		if _, ok := b.Tick(now); ok {
			t.Fatalf("emitted at cycle %d, want 3", now)
		}
	}
	built, ok := b.Tick(3)
	if !ok {
		t.Fatal("no emission at cycle 3")
	}
	if built.Req.Data != 128 {
		t.Fatalf("size = %d, want 128 (pattern 0110)", built.Req.Data)
	}
	if built.Req.Addr != 0xA00+64 {
		t.Fatalf("addr = %#x, want %#x", built.Req.Addr, 0xA00+64)
	}
	if b.Busy() {
		t.Fatal("builder still busy after emission")
	}
}

func TestBuilderStoreKind(t *testing.T) {
	win, _ := NewWindow(256)
	b := NewBuilder(win)
	e := arqEntry{tag: addr.Tag(0xA00, true), fmap: WideMap(0).Set(0)}
	e.targets = []memreq.Target{{}, {}}
	b.Accept(e, 0)
	var built memreq.Built
	var ok bool
	for now := sim.Cycle(0); now < 10 && !ok; now++ {
		built, ok = b.Tick(now)
	}
	if !ok || built.Req.Kind != hmc.Write {
		t.Fatalf("store entry built kind %v", built.Req.Kind)
	}
}

func TestMACFigure7EndToEnd(t *testing.T) {
	// The paper's Figure 7 example: loads of FLITs 6,8,9 in row 0xA
	// plus a store to the same row. Expect one 128B read (0110
	// pattern) carrying 3 targets and one bypassed 16B write.
	m := testMAC(false)
	row := uint64(0xA) << addr.RowShift
	m.Push(memreq.RawRequest{Addr: row + 6*16, Size: 8, Thread: 0, Tag: 1}, 0)
	m.Push(memreq.RawRequest{Addr: row + 8*16, Size: 8, Thread: 1, Tag: 2}, 1)
	m.Push(memreq.RawRequest{Addr: row + 7*16, Size: 8, Store: true, Thread: 2, Tag: 3}, 2)
	m.Push(memreq.RawRequest{Addr: row + 9*16, Size: 8, Thread: 3, Tag: 4}, 3)

	out := runMAC(m, 100)
	if len(out) != 2 {
		t.Fatalf("transactions = %d, want 2", len(out))
	}
	// The bypassed store skips the 3-cycle builder pipeline, so it
	// may legitimately complete before the coalesced read.
	read, write := out[0], out[1]
	if read.Req.Kind == hmc.Write {
		read, write = write, read
	}
	if read.Req.Kind != hmc.Read || write.Req.Kind != hmc.Write {
		t.Fatalf("kinds = %v,%v", read.Req.Kind, write.Req.Kind)
	}
	if read.Req.Data != 128 || len(read.Targets) != 3 || read.Bypassed {
		t.Fatalf("read tx = %+v", read)
	}
	if write.Req.Data != 16 || len(write.Targets) != 1 || !write.Bypassed {
		t.Fatalf("write tx = %+v", write)
	}
	st := m.Stats()
	if st.RawRequests != 4 || st.Transactions != 2 || st.Bypassed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.CoalescingEfficiency(); got != 0.5 {
		t.Fatalf("coalescing efficiency = %v, want 0.5", got)
	}
}

func TestMACFigure2SixteenLoadsOneRequest(t *testing.T) {
	// Figure 2: sixteen 16B loads covering one 256B row coalesce
	// into a single 256B request.
	m := testMAC(false)
	for i := 0; i < 16; i++ {
		m.Push(memreq.RawRequest{Addr: uint64(i * 16), Size: 16, Thread: uint16(i), Tag: uint16(i)}, sim.Cycle(i))
	}
	out := runMAC(m, 200)
	// MaxTargets=12 splits this into a 12-target and a 4-target
	// entry; with MaxTargets>=16 it would be a single request. Use
	// a permissive check on total coverage, then an exact one below.
	totalTargets := 0
	for _, b := range out {
		totalTargets += len(b.Targets)
	}
	if totalTargets != 16 {
		t.Fatalf("targets delivered = %d, want 16", totalTargets)
	}

	cfg := DefaultConfig()
	cfg.ARQ.FillMode = false
	cfg.ARQ.MaxTargets = 16
	m2 := MustNew(cfg)
	for i := 0; i < 16; i++ {
		m2.Push(memreq.RawRequest{Addr: uint64(i * 16), Size: 16, Thread: uint16(i), Tag: uint16(i)}, sim.Cycle(i))
	}
	out2 := runMAC(m2, 200)
	if len(out2) != 1 {
		t.Fatalf("transactions = %d, want 1", len(out2))
	}
	if out2[0].Req.Data != 256 || out2[0].Req.Addr != 0 || len(out2[0].Targets) != 16 {
		t.Fatalf("coalesced tx = %+v", out2[0])
	}
}

func TestMACPopRateHalfRequestPerCycle(t *testing.T) {
	// §4.4: the ARQ pops one entry every two cycles, so N distinct
	// rows take at least 2N cycles to emit.
	m := testMAC(false)
	const n = 10
	for i := 0; i < n; i++ {
		m.Push(memreq.RawRequest{Addr: uint64(i) << addr.RowShift, Size: 8, Tag: uint16(i)}, 0)
	}
	emitAt := make([]sim.Cycle, 0, n)
	for now := sim.Cycle(0); now < 100 && len(emitAt) < n; now++ {
		got := m.Tick(now)
		for i := range got {
			emitAt = append(emitAt, now)
			m.Completed(&got[i])
		}
	}
	if len(emitAt) != n {
		t.Fatalf("emitted %d of %d", len(emitAt), n)
	}
	for i := 1; i < n; i++ {
		if emitAt[i]-emitAt[i-1] < 2 {
			t.Fatalf("emissions %d cycles apart at %d, want >= 2", emitAt[i]-emitAt[i-1], i)
		}
	}
}

func TestMACFenceOrdersStream(t *testing.T) {
	m := testMAC(false)
	m.Push(memreq.RawRequest{Addr: 0x100, Size: 8, Tag: 1}, 0)
	m.Push(memreq.RawRequest{Fence: true}, 1)
	m.Push(memreq.RawRequest{Addr: 0x200, Size: 8, Tag: 2}, 2)

	// Drive without completing: the post-fence request must not be
	// emitted while the pre-fence transaction is outstanding.
	var first *memreq.Built
	for now := sim.Cycle(0); now < 50; now++ {
		got := m.Tick(now)
		if len(got) > 0 {
			first = &got[0]
			break
		}
	}
	if first == nil {
		t.Fatal("first transaction never emitted")
	}
	for now := sim.Cycle(50); now < 100; now++ {
		if got := m.Tick(now); len(got) > 0 {
			t.Fatal("post-fence transaction emitted before fence drained")
		}
	}
	m.Completed(first)
	var second []memreq.Built
	for now := sim.Cycle(100); now < 200 && len(second) == 0; now++ {
		second = m.Tick(now)
	}
	if len(second) != 1 || second[0].Req.Addr != 0x200 {
		t.Fatalf("post-fence tx = %+v", second)
	}
	if m.Stats().Fences != 1 {
		t.Fatalf("fence count = %d", m.Stats().Fences)
	}
}

func TestMACAtomicDirectRoute(t *testing.T) {
	m := testMAC(false)
	m.Push(memreq.RawRequest{Addr: 0x1008, Size: 8, Atomic: true, Thread: 2, Tag: 9}, 0)
	out := runMAC(m, 50)
	if len(out) != 1 {
		t.Fatalf("transactions = %d", len(out))
	}
	b := out[0]
	if b.Req.Kind != hmc.AtomicOp || !b.Bypassed {
		t.Fatalf("atomic tx = %+v", b)
	}
	if b.Req.Addr != 0x1000 || b.Req.Data != 16 {
		t.Fatalf("atomic addressing = %#x/%d", b.Req.Addr, b.Req.Data)
	}
}

func TestMACBypassPreservesRawSize(t *testing.T) {
	m := testMAC(false)
	m.Push(memreq.RawRequest{Addr: 0x208, Size: 8, Tag: 5, Thread: 1}, 0)
	out := runMAC(m, 50)
	if len(out) != 1 || !out[0].Bypassed {
		t.Fatalf("out = %+v", out)
	}
	if out[0].Req.Data != 16 {
		t.Fatalf("bypass size = %d, want one FLIT", out[0].Req.Data)
	}
	if out[0].Req.Addr != 0x200 {
		t.Fatalf("bypass addr = %#x, want FLIT-aligned 0x200", out[0].Req.Addr)
	}
}

func TestMACTargetsConservedAcrossManyRequests(t *testing.T) {
	// Integration invariant: every pushed memory request's (thread,
	// tag) appears in exactly one emitted transaction.
	m := testMAC(true)
	rng := sim.NewRNG(99)
	type key struct{ th, tag uint16 }
	want := make(map[key]bool)
	const n = 500
	pushed := 0
	now := sim.Cycle(0)
	for pushed < n {
		r := memreq.RawRequest{
			Addr:   uint64(rng.Intn(64)) * 16, // 4 rows
			Size:   8,
			Store:  rng.Intn(4) == 0,
			Thread: uint16(pushed % 8),
			Tag:    uint16(pushed),
		}
		if m.Push(r, now) {
			want[key{r.Thread, r.Tag}] = true
			pushed++
		}
		got := m.Tick(now)
		for i := range got {
			for _, tg := range got[i].Targets {
				k := key{tg.Thread, tg.Tag}
				if !want[k] {
					t.Fatalf("duplicate or unknown target %+v", tg)
				}
				delete(want, k)
			}
			m.Completed(&got[i])
		}
		now++
	}
	for ; m.Pending() > 0 && now < 100000; now++ {
		got := m.Tick(now)
		for i := range got {
			for _, tg := range got[i].Targets {
				k := key{tg.Thread, tg.Tag}
				if !want[k] {
					t.Fatalf("duplicate or unknown target %+v", tg)
				}
				delete(want, k)
			}
			m.Completed(&got[i])
		}
	}
	if len(want) != 0 {
		t.Fatalf("%d targets never delivered", len(want))
	}
	if m.Inflight() != 0 {
		t.Fatalf("inflight = %d at drain", m.Inflight())
	}
}

func TestMACBuiltSizesAreLegal(t *testing.T) {
	m := testMAC(true)
	rng := sim.NewRNG(5)
	now := sim.Cycle(0)
	// Builder output is 64/128/256B; bypasses are one FLIT, or two
	// when the raw access crosses a FLIT boundary.
	legal := map[uint32]bool{16: true, 32: true, 64: true, 128: true, 256: true}
	for i := 0; i < 300; i++ {
		m.Push(memreq.RawRequest{
			Addr:   uint64(rng.Intn(1 << 14)),
			Size:   8,
			Thread: uint16(i % 4),
			Tag:    uint16(i),
		}, now)
		for _, b := range m.Tick(now) {
			if !legal[b.Req.Data] {
				t.Fatalf("illegal transaction size %d", b.Req.Data)
			}
			bb := b
			m.Completed(&bb)
		}
		now++
	}
}

func TestMACCompletedUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Completed underflow did not panic")
		}
	}()
	testMAC(false).Completed(nil)
}

func TestMACConfigValidate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ARQ.Entries = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("bad ARQ config accepted")
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMACSpaceBytesMatchesPaper(t *testing.T) {
	// §5.3.3: 32-entry ARQ -> 2048B + 14B builder = 2062B.
	if got := DefaultConfig().SpaceBytes(); got != 2062 {
		t.Fatalf("space = %dB, want 2062B", got)
	}
}

func TestMACReset(t *testing.T) {
	m := testMAC(false)
	m.Push(memreq.RawRequest{Addr: 0x100, Size: 8}, 0)
	m.Tick(0)
	m.Reset()
	if m.Pending() != 0 || m.Inflight() != 0 || m.Stats().RawRequests != 0 {
		t.Fatal("reset incomplete")
	}
	out := runMAC(m, 10)
	if len(out) != 0 {
		t.Fatal("reset left queued work")
	}
}
