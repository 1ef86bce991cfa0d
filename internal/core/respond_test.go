package core

import (
	"reflect"
	"testing"

	"mac3d/internal/hmc"
	"mac3d/internal/memreq"
)

func built(a uint64) *memreq.Built {
	return &memreq.Built{
		Req:     hmc.Request{Kind: hmc.Read, Addr: a, Data: 64},
		Targets: []memreq.Target{{Thread: 0, Tag: uint16(a)}},
	}
}

func TestResponseRouterRegisterAndDeliver(t *testing.T) {
	r := NewResponseRouter(0)
	b := built(0x100)
	tag, ok := r.Register(b, 5)
	if !ok || tag != 1 {
		t.Fatalf("Register = (%d, %v), want (1, true)", tag, ok)
	}
	if b.Req.Tag != tag {
		t.Fatalf("Register did not stamp the request tag: %d", b.Req.Tag)
	}
	if r.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", r.Pending())
	}
	// The buffer holds its own copy of the registered transaction.
	got, status := r.Deliver(hmc.Response{Tag: tag})
	if status != RespDelivered || got == nil || !reflect.DeepEqual(*got, *b) {
		t.Fatalf("Deliver = (%+v, %v), want (%+v, delivered)", got, status, b)
	}
	if r.Pending() != 0 {
		t.Fatalf("Pending after delivery = %d, want 0", r.Pending())
	}
	if st := r.Stats(); st.Delivered != 1 {
		t.Fatalf("Delivered = %d, want 1", st.Delivered)
	}
}

func TestResponseRouterTagsMonotonicFromOne(t *testing.T) {
	// The seed model assigned device tags 1, 2, 3, ... — parity with
	// it requires the same sequence.
	r := NewResponseRouter(0)
	for want := uint64(1); want <= 5; want++ {
		tag, ok := r.Register(built(want), 0)
		if !ok || tag != want {
			t.Fatalf("Register #%d = (%d, %v), want (%d, true)", want, tag, ok, want)
		}
	}
}

func TestResponseRouterDuplicateDelivery(t *testing.T) {
	r := NewResponseRouter(0)
	tag, _ := r.Register(built(0x40), 0)
	if _, status := r.Deliver(hmc.Response{Tag: tag}); status != RespDelivered {
		t.Fatalf("first delivery = %v, want delivered", status)
	}
	// A retransmitted response for the already-retired transaction.
	got, status := r.Deliver(hmc.Response{Tag: tag})
	if status != RespDuplicate || got != nil {
		t.Fatalf("second delivery = (%v, %v), want (nil, duplicate)", got, status)
	}
	if st := r.Stats(); st.Duplicates != 1 || st.Delivered != 1 {
		t.Fatalf("stats = %+v, want 1 delivered + 1 duplicate", st)
	}
}

func TestResponseRouterUnknownTag(t *testing.T) {
	r := NewResponseRouter(0)
	r.Register(built(0x40), 0)
	// Tag 0 is never issued; tags above lastTag were never issued.
	for _, tag := range []uint64{0, 99} {
		got, status := r.Deliver(hmc.Response{Tag: tag})
		if status != RespUnknown || got != nil {
			t.Fatalf("Deliver(tag=%d) = (%v, %v), want (nil, unknown)", tag, got, status)
		}
	}
	if st := r.Stats(); st.Unknown != 2 {
		t.Fatalf("Unknown = %d, want 2", st.Unknown)
	}
	if r.Pending() != 1 {
		t.Fatal("unknown deliveries must not consume outstanding entries")
	}
}

func TestResponseRouterPoisonedDelivery(t *testing.T) {
	r := NewResponseRouter(0)
	b := built(0x40)
	tag, _ := r.Register(b, 0)
	got, status := r.Deliver(hmc.Response{Tag: tag, Poisoned: true})
	if status != RespPoisoned || got == nil || !reflect.DeepEqual(*got, *b) {
		t.Fatalf("Deliver = (%+v, %v), want (%+v, poisoned)", got, status, b)
	}
	// The entry is consumed exactly once: no leak, and a duplicate of
	// the poisoned response classifies as duplicate.
	if r.Pending() != 0 {
		t.Fatal("poisoned delivery leaked the target-buffer entry")
	}
	if _, status := r.Deliver(hmc.Response{Tag: tag, Poisoned: true}); status != RespDuplicate {
		t.Fatalf("replayed poisoned response = %v, want duplicate", status)
	}
	if st := r.Stats(); st.Poisoned != 1 {
		t.Fatalf("Poisoned = %d, want 1", st.Poisoned)
	}
}

func TestResponseRouterCapExhaustion(t *testing.T) {
	r := NewResponseRouter(2)
	t1, ok1 := r.Register(built(1), 0)
	_, ok2 := r.Register(built(2), 0)
	if !ok1 || !ok2 {
		t.Fatal("registrations under capacity rejected")
	}
	b3 := built(3)
	if _, ok := r.Register(b3, 0); ok {
		t.Fatal("Register above capacity accepted")
	}
	if st := r.Stats(); st.RegisterRejects != 1 {
		t.Fatalf("RegisterRejects = %d, want 1", st.RegisterRejects)
	}
	// A rejected Register must not burn a tag: after space frees, the
	// retried transaction gets the next sequential tag.
	r.Deliver(hmc.Response{Tag: t1})
	tag, ok := r.Register(b3, 1)
	if !ok || tag != 3 {
		t.Fatalf("retried Register = (%d, %v), want (3, true)", tag, ok)
	}
}

func TestResponseRouterRecycle(t *testing.T) {
	r := NewResponseRouter(0)
	tag, _ := r.Register(built(0x40), 0)
	got, _ := r.Deliver(hmc.Response{Tag: tag})
	// The delivered Built stays intact while the slab grows past a
	// chunk, up to its Recycle.
	var tags []uint64
	for i := 0; i < 3*txChunk; i++ {
		tg, _ := r.Register(built(uint64(0x1000+i)), 1)
		tags = append(tags, tg)
	}
	if got.Req.Addr != 0x40 || got.Req.Tag != tag || len(got.Targets) != 1 {
		t.Fatalf("delivered Built changed before Recycle: %+v", got)
	}
	r.Recycle(got)
	r.Recycle(got) // a second Recycle of the same Built is ignored
	r.Recycle(built(0x40))
	for _, tg := range tags {
		b, status := r.Deliver(hmc.Response{Tag: tg})
		if status != RespDelivered || b.Req.Tag != tg {
			t.Fatalf("Deliver(%d) = (%+v, %v)", tg, b, status)
		}
		r.Recycle(b)
	}
	// Once warm, a register→deliver→recycle cycle reuses slots.
	allocs := testing.AllocsPerRun(100, func() {
		b := memreq.Built{Req: hmc.Request{Addr: 0x80}}
		tg, _ := r.Register(&b, 2)
		got, _ := r.Deliver(hmc.Response{Tag: tg})
		r.Recycle(got)
	})
	if allocs != 0 {
		t.Fatalf("warm register/deliver/recycle allocates %.1f times", allocs)
	}
}

func TestResponseRouterOldest(t *testing.T) {
	r := NewResponseRouter(0)
	if _, _, _, ok := r.Oldest(); ok {
		t.Fatal("Oldest on empty buffer reported ok")
	}
	r.Register(built(1), 10)
	tag2, _ := r.Register(built(2), 3)
	r.Register(built(3), 7)
	tag, registered, b, ok := r.Oldest()
	if !ok || tag != tag2 || registered != 3 || b == nil {
		t.Fatalf("Oldest = (%d, %d, %p, %v), want tag %d at cycle 3", tag, registered, b, ok, tag2)
	}
	// Tie on registration cycle: lowest tag wins (deterministic).
	r2 := NewResponseRouter(0)
	first, _ := r2.Register(built(1), 5)
	r2.Register(built(2), 5)
	if tag, _, _, _ := r2.Oldest(); tag != first {
		t.Fatalf("Oldest tie-break returned tag %d, want %d", tag, first)
	}
}

func TestResponseRouterReset(t *testing.T) {
	r := NewResponseRouter(0)
	tag, _ := r.Register(built(1), 0)
	r.Deliver(hmc.Response{Tag: tag})
	r.Register(built(2), 0)
	r.Reset()
	if r.Pending() != 0 {
		t.Fatal("Reset left outstanding entries")
	}
	if st := r.Stats(); st != (ResponseRouterStats{}) {
		t.Fatalf("Reset left stats %+v", st)
	}
	if tag, _ := r.Register(built(3), 0); tag != 1 {
		t.Fatalf("tag after Reset = %d, want 1", tag)
	}
}

func TestResponseStatusString(t *testing.T) {
	want := map[ResponseStatus]string{
		RespDelivered: "delivered", RespPoisoned: "poisoned",
		RespDuplicate: "duplicate", RespUnknown: "unknown",
		ResponseStatus(42): "ResponseStatus(42)",
	}
	for s, str := range want {
		if s.String() != str {
			t.Fatalf("String(%d) = %q, want %q", int(s), s.String(), str)
		}
	}
}
