package queue

import (
	"testing"
	"testing/quick"
)

func TestFIFOOrder(t *testing.T) {
	q := New[int](4)
	for i := 1; i <= 4; i++ {
		if !q.Push(i) {
			t.Fatalf("push %d rejected", i)
		}
	}
	for i := 1; i <= 4; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop = (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty succeeded")
	}
}

func TestFIFORejectsWhenFull(t *testing.T) {
	q := New[string](2)
	q.Push("a")
	q.Push("b")
	if q.Push("c") {
		t.Fatal("push into full queue accepted")
	}
	if q.Len() != 2 {
		t.Fatalf("len = %d after rejected push", q.Len())
	}
	if v, _ := q.Pop(); v != "a" {
		t.Fatalf("rejected push corrupted order: got %q", v)
	}
}

func TestFIFOWraparound(t *testing.T) {
	q := New[int](3)
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			if !q.Push(round*3 + i) {
				t.Fatalf("round %d push %d rejected", round, i)
			}
		}
		for i := 0; i < 3; i++ {
			v, ok := q.Pop()
			if !ok || v != round*3+i {
				t.Fatalf("round %d: pop = (%d,%v)", round, v, ok)
			}
		}
	}
}

func TestPeekDoesNotConsume(t *testing.T) {
	q := New[int](2)
	q.Push(7)
	for i := 0; i < 3; i++ {
		if v, ok := q.Peek(); !ok || v != 7 {
			t.Fatalf("peek %d = (%d,%v)", i, v, ok)
		}
	}
	if q.Len() != 1 {
		t.Fatalf("peek consumed: len=%d", q.Len())
	}
}

func TestAtIndexesFromFront(t *testing.T) {
	q := New[int](4)
	q.Push(0)
	q.Push(1)
	q.Pop() // force non-zero head
	q.Push(2)
	q.Push(3)
	want := []int{1, 2, 3}
	for i, w := range want {
		if got := q.At(i); got != w {
			t.Fatalf("At(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	q := New[int](2)
	q.Push(1)
	q.At(1)
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New[int](0)
}

func TestStatsTracking(t *testing.T) {
	q := New[int](2)
	q.Push(1)
	q.Push(2)
	q.Push(3) // rejected
	s := q.Stats()
	if s.Pushes != 3 || s.Rejects != 1 || s.MaxOccupancy != 2 {
		t.Fatalf("stats = %+v", s)
	}
	// Occupancies observed at pushes: 0, 1, 2 -> avg 1.
	if s.AvgOccupancy != 1 {
		t.Fatalf("avg occupancy = %v, want 1", s.AvgOccupancy)
	}
}

func TestResetClearsEverything(t *testing.T) {
	q := New[int](2)
	q.Push(1)
	q.Reset()
	if q.Len() != 0 || !q.Empty() {
		t.Fatal("reset left elements")
	}
	if s := q.Stats(); s.Pushes != 0 || s.MaxOccupancy != 0 {
		t.Fatalf("reset left stats: %+v", s)
	}
}

func TestFIFOPropertyAgainstSlice(t *testing.T) {
	// Property: a FIFO behaves exactly like a bounded slice model
	// under an arbitrary push/pop command sequence.
	f := func(cmds []uint8) bool {
		q := New[uint8](8)
		var model []uint8
		for _, c := range cmds {
			if c%3 != 0 { // push twice as often as pop
				ok := q.Push(c)
				wantOK := len(model) < 8
				if ok != wantOK {
					return false
				}
				if ok {
					model = append(model, c)
				}
			} else {
				v, ok := q.Pop()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFrontIsTheHeadInPlace(t *testing.T) {
	q := New[int](2)
	if q.Front() != nil {
		t.Fatal("Front of an empty queue is not nil")
	}
	q.Push(1)
	q.Push(2)
	*q.Front() = 10
	if v, _ := q.Pop(); v != 10 {
		t.Fatalf("pop after writing through Front = %d, want 10", v)
	}
	if v := *q.Front(); v != 2 {
		t.Fatalf("Front = %d, want 2", v)
	}
}

func TestPushGrowKeepsOrderAcrossWrap(t *testing.T) {
	q := New[int](3)
	q.Push(0)
	q.Pop() // head off zero, so the grow copies a wrapped ring
	for i := 1; i <= 10; i++ {
		q.PushGrow(i)
	}
	if q.Cap() != 12 {
		t.Fatalf("cap = %d after growing 3 → 6 → 12", q.Cap())
	}
	for i := 1; i <= 10; i++ {
		if v, ok := q.Pop(); !ok || v != i {
			t.Fatalf("pop = (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if s := q.Stats(); s.Rejects != 0 || s.MaxOccupancy != 10 {
		t.Fatalf("stats = %+v", s)
	}
	// At its working size the ring allocates nothing.
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 12; i++ {
			q.PushGrow(i)
		}
		for i := 0; i < 12; i++ {
			q.Pop()
		}
	}); allocs != 0 {
		t.Fatalf("warm PushGrow/Pop allocates %.0f times", allocs)
	}
}
