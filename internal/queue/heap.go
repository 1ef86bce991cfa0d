package queue

// Heap is a min-heap of T ordered by a less function, storing elements
// by value so Push and Pop never box them. Its sift-up and sift-down
// steps are container/heap's, comparison for comparison and swap for
// swap, so elements that tie under less leave in exactly the order
// container/heap would produce: the device response queue and the
// ideal noc crossbar depend on that tie order, and their golden
// captures pin it.
//
// The zero value is not usable; construct with NewHeap.
type Heap[T any] struct {
	s    []T
	less func(a, b *T) bool
}

// NewHeap returns an empty heap ordered by less.
func NewHeap[T any](less func(a, b *T) bool) Heap[T] {
	return Heap[T]{less: less}
}

// Len returns the number of elements.
func (h *Heap[T]) Len() int { return len(h.s) }

// Min returns a pointer to the least element, or nil when the heap is
// empty. The pointer is valid until the next Push, Pop or Reset.
func (h *Heap[T]) Min() *T {
	if len(h.s) == 0 {
		return nil
	}
	return &h.s[0]
}

// Push adds v.
func (h *Heap[T]) Push(v T) {
	h.s = append(h.s, v)
	h.up(len(h.s) - 1)
}

// Pop removes and returns the least element. It panics when the heap
// is empty.
func (h *Heap[T]) Pop() T {
	n := len(h.s) - 1
	h.s[0], h.s[n] = h.s[n], h.s[0]
	h.down(0, n)
	v := h.s[n]
	var zero T
	h.s[n] = zero
	h.s = h.s[:n]
	return v
}

// Reset empties the heap, keeping its storage.
func (h *Heap[T]) Reset() {
	clear(h.s)
	h.s = h.s[:0]
}

func (h *Heap[T]) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(&h.s[j], &h.s[i]) {
			break
		}
		h.s[i], h.s[j] = h.s[j], h.s[i]
		j = i
	}
}

func (h *Heap[T]) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(&h.s[j2], &h.s[j1]) {
			j = j2 // right child
		}
		if !h.less(&h.s[j], &h.s[i]) {
			break
		}
		h.s[i], h.s[j] = h.s[j], h.s[i]
		i = j
	}
}
