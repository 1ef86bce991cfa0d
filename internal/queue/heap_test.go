package queue

import (
	"container/heap"
	"testing"
	"testing/quick"
)

// keyed is a heap element whose key ties often; id tells tied
// elements apart.
type keyed struct{ key, id int }

// boxed is the container/heap reference the typed Heap must match.
type boxed []keyed

func (h boxed) Len() int           { return len(h) }
func (h boxed) Less(i, j int) bool { return h[i].key < h[j].key }
func (h boxed) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *boxed) Push(x any)        { *h = append(*h, x.(keyed)) }
func (h *boxed) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

// TestHeapMatchesContainerHeap drives the typed heap and container/heap
// with the same push/pop sequence over few distinct keys: every pop
// must return the same element, ties included, because the device and
// ideal-crossbar goldens pin container/heap's tie order.
func TestHeapMatchesContainerHeap(t *testing.T) {
	f := func(cmds []uint8) bool {
		h := NewHeap(func(a, b *keyed) bool { return a.key < b.key })
		var ref boxed
		for id, c := range cmds {
			if c%4 == 0 && h.Len() > 0 {
				if h.Min().id != ref[0].id {
					return false
				}
				if got, want := h.Pop(), heap.Pop(&ref).(keyed); got != want {
					return false
				}
				continue
			}
			v := keyed{key: int(c % 5), id: id}
			h.Push(v)
			heap.Push(&ref, v)
		}
		for h.Len() > 0 {
			if h.Pop() != heap.Pop(&ref).(keyed) {
				return false
			}
		}
		return ref.Len() == 0 && h.Min() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapResetKeepsStorage(t *testing.T) {
	h := NewHeap(func(a, b *int) bool { return *a < *b })
	for i := 0; i < 8; i++ {
		h.Push(8 - i)
	}
	h.Reset()
	if h.Len() != 0 || h.Min() != nil {
		t.Fatal("Reset left elements")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			h.Push(i)
		}
		for h.Len() > 0 {
			h.Pop()
		}
	}); allocs != 0 {
		t.Fatalf("warm Push/Pop allocates %.0f times", allocs)
	}
}
