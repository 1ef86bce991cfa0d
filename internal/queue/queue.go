// Package queue provides the two containers the model's hot paths run
// on, both allocation-free once warm:
//
//   - FIFO, the bounded ring buffer used for every hardware queue: the
//     request router's Local/Global/Remote access queues, the
//     coalescer input queues, the routed noc fabric's link, port,
//     injection and ejection buffers, and the node's holding queues.
//     It keeps occupancy statistics so the experiment harness can
//     report contention and sizing data without extra
//     instrumentation.
//   - Heap, the typed min-heap behind the device's response queue and
//     the ideal noc crossbar.
package queue

import "fmt"

// FIFO is a bounded first-in first-out ring buffer of T.
// The zero value is not usable; construct with New.
type FIFO[T any] struct {
	buf  []T
	head int
	size int

	pushes    uint64
	rejects   uint64
	occupancy uint64 // sum of size observed at each push attempt
	maxSize   int
}

// New returns an empty FIFO with the given capacity. Capacity must be
// positive.
func New[T any](capacity int) *FIFO[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("queue: non-positive capacity %d", capacity))
	}
	return &FIFO[T]{buf: make([]T, capacity)}
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return q.size }

// Cap returns the queue capacity.
func (q *FIFO[T]) Cap() int { return len(q.buf) }

// Full reports whether no more elements can be pushed.
func (q *FIFO[T]) Full() bool { return q.size == len(q.buf) }

// Empty reports whether the queue holds no elements.
func (q *FIFO[T]) Empty() bool { return q.size == 0 }

// Push appends v and reports whether there was room. A rejected push
// leaves the queue unchanged (callers model stall/backpressure).
func (q *FIFO[T]) Push(v T) bool {
	q.pushes++
	q.occupancy += uint64(q.size)
	if q.size == len(q.buf) {
		q.rejects++
		return false
	}
	q.buf[q.wrap(q.head+q.size)] = v
	q.size++
	if q.size > q.maxSize {
		q.maxSize = q.size
	}
	return true
}

// PushGrow appends v, doubling the ring when it is full, so it never
// refuses. It is for queues whose bound the caller enforces itself
// (credits, a bounded producer): such a ring stops growing at that
// bound and is allocation-free from then on.
func (q *FIFO[T]) PushGrow(v T) {
	if q.size == len(q.buf) {
		q.grow()
	}
	q.Push(v)
}

// grow doubles the ring, unwrapping its elements to the front.
func (q *FIFO[T]) grow() {
	buf := make([]T, 2*len(q.buf))
	for i := 0; i < q.size; i++ {
		buf[i] = q.buf[q.wrap(q.head+i)]
	}
	q.buf, q.head = buf, 0
}

// wrap reduces a ring index in [0, 2*Cap) into [0, Cap) without a
// division.
func (q *FIFO[T]) wrap(i int) int {
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	return i
}

// Pop removes and returns the oldest element. ok is false when empty.
func (q *FIFO[T]) Pop() (v T, ok bool) {
	if q.size == 0 {
		return v, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = q.wrap(q.head + 1)
	q.size--
	return v, true
}

// Front returns a pointer to the oldest element, or nil when the queue
// is empty. It lets a caller read or update a large head in place; the
// pointer is valid until the next Push, PushGrow, Pop or Reset.
func (q *FIFO[T]) Front() *T {
	if q.size == 0 {
		return nil
	}
	return &q.buf[q.head]
}

// Peek returns the oldest element without removing it.
func (q *FIFO[T]) Peek() (v T, ok bool) {
	if q.size == 0 {
		return v, false
	}
	return q.buf[q.head], true
}

// At returns the i-th oldest queued element (0 = front). It panics if i
// is out of range; use Len to bound iteration.
func (q *FIFO[T]) At(i int) T {
	if i < 0 || i >= q.size {
		panic(fmt.Sprintf("queue: At(%d) with size %d", i, q.size))
	}
	return q.buf[q.wrap(q.head+i)]
}

// Reset discards all elements and statistics.
func (q *FIFO[T]) Reset() {
	var zero T
	for i := range q.buf {
		q.buf[i] = zero
	}
	q.head, q.size = 0, 0
	q.pushes, q.rejects, q.occupancy, q.maxSize = 0, 0, 0, 0
}

// Stats summarizes queue behaviour over its lifetime.
type Stats struct {
	Pushes       uint64  // push attempts, including rejected ones
	Rejects      uint64  // pushes refused because the queue was full
	MaxOccupancy int     // high-water mark
	AvgOccupancy float64 // mean size observed at push attempts
}

// Stats returns the accumulated statistics.
func (q *FIFO[T]) Stats() Stats {
	s := Stats{Pushes: q.pushes, Rejects: q.rejects, MaxOccupancy: q.maxSize}
	if q.pushes > 0 {
		s.AvgOccupancy = float64(q.occupancy) / float64(q.pushes)
	}
	return s
}
