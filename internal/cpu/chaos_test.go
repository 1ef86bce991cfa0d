package cpu

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"mac3d/internal/addr"
	"mac3d/internal/chaos"
	"mac3d/internal/hmc"
	"mac3d/internal/memreq"
	"mac3d/internal/noc"
	"mac3d/internal/trace"
)

// chaosRunConfig returns the default setup with auditing on and the
// given chaos profile string applied.
func chaosRunConfig(t *testing.T, profile string, seed uint64) RunConfig {
	t.Helper()
	cfg := DefaultRunConfig()
	cfg.Audit = true
	p, err := chaos.ParseProfile(profile)
	if err != nil {
		t.Fatalf("ParseProfile(%q): %v", profile, err)
	}
	p.Seed = seed
	cfg.Chaos = p
	return cfg
}

// TestAuditCleanOnPlainRun: with no adversity at all, every request
// must reach exactly one terminal outcome with bytes conserved, and
// the ledger must not perturb the measurements.
func TestAuditCleanOnPlainRun(t *testing.T) {
	tr := seqTrace(4, 64)
	base, err := Run(DefaultRunConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultRunConfig()
	cfg.Audit = true
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Audit
	if a == nil {
		t.Fatal("audit enabled but no report")
	}
	if !a.Ok() {
		t.Fatalf("violations on a clean run:\n%s", a.Diff())
	}
	if a.Issued != res.MemRequests || a.Delivered != a.Issued || a.Open != 0 {
		t.Fatalf("ledger counters: %s (MemRequests=%d)", a, res.MemRequests)
	}
	if res.Cycles != base.Cycles || res.Instructions != base.Instructions {
		t.Fatalf("auditing changed the simulation: %d/%d cycles, %d/%d instructions",
			res.Cycles, base.Cycles, res.Instructions, base.Instructions)
	}
}

// TestChaosRunConservesUnderStorm: the full stressor composition must
// not break a single lifecycle invariant, and the run must retire the
// same instructions as the calm run.
func TestChaosRunConservesUnderStorm(t *testing.T) {
	tr := seqTrace(4, 64)
	cfg := chaosRunConfig(t, "storm", 11)
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatalf("storm run: %v", err)
	}
	if !res.Audit.Ok() {
		t.Fatalf("storm broke invariants:\n%s", res.Audit.Diff())
	}
	if res.Chaos == nil || res.Chaos.DelayedResponses == 0 {
		t.Fatalf("storm injected nothing: %s", res.Chaos)
	}
	calm, err := Run(DefaultRunConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != calm.Instructions {
		t.Fatalf("storm run retired %d instructions, calm %d",
			res.Instructions, calm.Instructions)
	}
	// The storm must actually perturb the schedule (it may land faster
	// or slower — reordering sometimes helps — but never identical).
	if res.Cycles == calm.Cycles {
		t.Fatalf("storm run reproduced the calm makespan: %d cycles", res.Cycles)
	}
}

// TestChaosDeterministic: one profile+seed is one adversarial
// schedule; a different chaos seed is a different one.
func TestChaosDeterministic(t *testing.T) {
	tr := seqTrace(4, 32)
	a, err := Run(chaosRunConfig(t, "storm", 5), tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(chaosRunConfig(t, "storm", 5), tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same chaos seed produced different results")
	}
	c, err := Run(chaosRunConfig(t, "storm", 6), tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles == c.Cycles && reflect.DeepEqual(a.Chaos, c.Chaos) {
		t.Fatal("different chaos seed reproduced the schedule")
	}
}

// TestTargetBufferBackpressureUnderDelayStorm: permanent delay storms
// pile responses up behind a tiny bounded target buffer; the router
// must backpressure (counted rejects), never drop or panic, and the
// run must drain with every invariant intact.
func TestTargetBufferBackpressureUnderDelayStorm(t *testing.T) {
	tr := seqTrace(2, 32)
	cfg := chaosRunConfig(t, "delay=1:16:24", 3)
	cfg.Node.TargetBufferDepth = 4
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatalf("delay-storm run with a 4-entry target buffer: %v", err)
	}
	if res.Responses.RegisterRejects == 0 {
		t.Fatal("bounded target buffer never backpressured under the storm")
	}
	if !res.Audit.Ok() {
		t.Fatalf("backpressure broke invariants:\n%s", res.Audit.Diff())
	}
	free, err := Run(DefaultRunConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != free.Instructions {
		t.Fatalf("bounded stormy run retired %d instructions, free calm run %d",
			res.Instructions, free.Instructions)
	}
}

// TestRetryConvergence: with a poison rate the bounded retry budget
// comfortably covers, every poisoned completion must eventually
// deliver — zero failed requests, with the re-issues visible in both
// the result and the ledger.
func TestRetryConvergence(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.Audit = true
	cfg.HMC.Faults.CRCErrorRate = 0.3
	cfg.HMC.Faults.RetryLimit = 1
	cfg.HMC.Faults.Seed = 9
	cfg.Retry = memreq.RetryPolicy{MaxRetries: 8, Backoff: 16}
	res, err := Run(cfg, seqTrace(4, 64))
	if err != nil {
		t.Fatalf("retrying run: %v", err)
	}
	if res.Device.PoisonedResponses == 0 {
		t.Fatal("setup: no poisoned responses at CRC rate 0.3, retry limit 1")
	}
	if res.RetriedRequests == 0 {
		t.Fatal("poisoned completions were never re-issued")
	}
	if res.FailedRequests != 0 {
		t.Fatalf("%d requests failed despite an 8-deep retry budget", res.FailedRequests)
	}
	a := res.Audit
	if !a.Ok() {
		t.Fatalf("retries broke invariants:\n%s", a.Diff())
	}
	if a.Reissued == 0 || a.Delivered != a.Issued || a.Failed != 0 {
		t.Fatalf("ledger: %s", a)
	}
}

// TestRetryBudgetExhausts: under certain poison, a bounded budget must
// give up cleanly — every request fails as its one terminal outcome,
// after exactly MaxRetries re-issues each.
func TestRetryBudgetExhausts(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.Audit = true
	cfg.HMC.Faults.CRCErrorRate = 1.0
	cfg.HMC.Faults.RetryLimit = 1
	cfg.Retry = memreq.RetryPolicy{MaxRetries: 2, Backoff: 4}
	res, err := Run(cfg, seqTrace(2, 16))
	if err != nil {
		t.Fatalf("run under certain poison: %v", err)
	}
	if res.FailedRequests != res.MemRequests {
		t.Fatalf("FailedRequests = %d, want all %d", res.FailedRequests, res.MemRequests)
	}
	if res.RetriedRequests != 2*res.MemRequests {
		t.Fatalf("RetriedRequests = %d, want %d (2 per request)",
			res.RetriedRequests, 2*res.MemRequests)
	}
	a := res.Audit
	if !a.Ok() {
		t.Fatalf("exhausted retries broke invariants:\n%s", a.Diff())
	}
	if a.Failed != res.MemRequests || a.Delivered != 0 {
		t.Fatalf("ledger: %s", a)
	}
}

// TestRetryPolicyValidation: a negative policy is rejected before the
// run starts.
func TestRetryPolicyValidation(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.Retry = memreq.RetryPolicy{MaxRetries: -1}
	if _, err := Run(cfg, seqTrace(1, 1)); err == nil {
		t.Fatal("negative MaxRetries accepted")
	}
}

// TestInjectedDoubleDeliveryCaught: the test-only dupDeliver hook
// replays every delivered completion; the ledger must flag each replay
// as a duplicate-delivery with per-request diagnostics, while the
// pipeline itself survives (the LSQ ignores the stale retire).
func TestInjectedDoubleDeliveryCaught(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.Audit = true
	m, err := Build(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.nodes[0].dupDeliver = true
	if err := m.Load(seqTrace(2, 16)); err != nil {
		t.Fatal(err)
	}
	rs, err := m.Run()
	if err != nil {
		t.Fatalf("run with duplicate deliveries: %v", err)
	}
	res := rs[0]
	a := res.Audit
	if a.Ok() {
		t.Fatal("injected double delivery went undetected")
	}
	dup := 0
	for _, v := range a.Violations {
		if v.Reason != "duplicate-delivery" {
			t.Fatalf("unexpected violation class %q:\n%s", v.Reason, v)
		}
		if v.Cycle == 0 || (v.ID == 0 && v.Thread == 0 && v.Tag == 0 && dup > 0) {
			t.Fatalf("diagnostic not tied to a request: %+v", v)
		}
		dup++
	}
	if dup == 0 {
		t.Fatalf("no duplicate-delivery violations:\n%s", a.Diff())
	}
}

// TestRemoteDoubleDeliveryCaught: a node replaying the targets it
// served for another node's thread is caught by the machine-wide
// ledger when the genuine response lands at the thread's home node.
func TestRemoteDoubleDeliveryCaught(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.Audit = true
	m, err := Build(cfg, &noc.Config{Topology: noc.Ideal, Nodes: 2, LinkLatency: 8})
	if err != nil {
		t.Fatal(err)
	}
	m.nodes[1].dupDeliver = true
	// One thread, homed on node 0, loading only rows node 1 owns.
	const reqs = 16
	tr := trace.NewTrace(1)
	for i := 0; i < reqs; i++ {
		tr.Append(trace.Event{Addr: uint64(2*i+1) * addr.RowBytes, Op: trace.Load, Size: 8, Gap: 1})
	}
	if err := m.Load(tr); err != nil {
		t.Fatal(err)
	}
	rs, err := m.Run()
	if err != nil {
		t.Fatalf("run with duplicate deliveries: %v", err)
	}
	if rs[0].RemoteSent != reqs || rs[1].RemoteServed != reqs {
		t.Fatalf("remote sent/served = %d/%d, want %d", rs[0].RemoteSent, rs[1].RemoteServed, reqs)
	}
	a := rs[0].Audit
	if len(a.Violations) != reqs {
		t.Fatalf("%d violations for %d replayed targets:\n%s", len(a.Violations), reqs, a.Diff())
	}
	for _, v := range a.Violations {
		if v.Reason != "duplicate-delivery" || v.ID == 0 {
			t.Fatalf("unexpected violation: %s", v)
		}
	}
}

// TestStallErrorCarriesAuditDiagnostics: when the watchdog fires on an
// audited run, the error must name the component holding each
// in-flight request and the oldest one.
func TestStallErrorCarriesAuditDiagnostics(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.Audit = true
	cfg.HMC.Faults.DropResponseEvery = 1
	cfg.Node.StallLimit = 2_000
	cfg.Node.MaxCycles = 10_000_000
	_, err := Run(cfg, seqTrace(2, 8))
	if err == nil {
		t.Fatal("run with every response dropped completed")
	}
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("error is %T, want *StallError: %v", err, err)
	}
	if stall.AuditInFlight == 0 {
		t.Fatalf("AuditInFlight = 0 with responses dropped: %+v", stall)
	}
	if !strings.Contains(stall.AuditOldest, "held-by=") {
		t.Fatalf("AuditOldest = %q lacks the holder", stall.AuditOldest)
	}
	for _, want := range []string{"audit: oldest in-flight request", "held-by="} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("diagnostic dump missing %q:\n%s", want, err)
		}
	}
}

// TestZeroChaosProfileIsNoOp: configuring the zero profile must not
// change a single measurement.
func TestZeroChaosProfileIsNoOp(t *testing.T) {
	tr := seqTrace(4, 32)
	base, err := Run(DefaultRunConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultRunConfig()
	cfg.Chaos = chaos.Profile{} // explicit zero
	got, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, got) {
		t.Fatal("zero chaos profile changed the simulation")
	}
}

// cubeChaosConfig is chaosRunConfig with the cube-internal vault
// fabric routed.
func cubeChaosConfig(t *testing.T, profile, cube string, seed uint64) RunConfig {
	t.Helper()
	cfg := chaosRunConfig(t, profile, seed)
	cc, err := hmc.ParseCubeConfig(cube)
	if err != nil {
		t.Fatalf("ParseCubeConfig(%q): %v", cube, err)
	}
	cfg.HMC.Cube = cc
	return cfg
}

// TestCubeChaosDeterministic: a routed cube fabric under the full
// storm plus the cubelink stressor replays bit-for-bit from one seed,
// actually stalls cube links, and holds every lifecycle invariant.
func TestCubeChaosDeterministic(t *testing.T) {
	tr := seqTrace(4, 64)
	const profile = "delay=0.01:16:32,reorder=0.1,fence=0.002:2,vault=0.002:24,cubelink=0.01:48"
	a, err := Run(cubeChaosConfig(t, profile, "ring", 5), tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cubeChaosConfig(t, profile, "ring", 5), tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same cube+chaos seed produced different results")
	}
	if a.Chaos == nil || a.Chaos.CubeLinkStalls == 0 {
		t.Fatalf("cubelink stressor injected nothing: %+v", a.Chaos)
	}
	if a.Cube == nil || a.Cube.Delivered == 0 {
		t.Fatalf("routed cube run missing fabric stats: %+v", a.Cube)
	}
	if !a.Audit.Ok() {
		t.Fatalf("cube chaos broke invariants:\n%s", a.Audit.Diff())
	}
}
