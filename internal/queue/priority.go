// Package queue provides the intrusive priority queue behind the Nub's
// queues of blocked threads (per mutex, per condition variable, per
// semaphore): items are ordered by priority, FIFO within a band.
//
// The queue is intrusive — callers embed a PItem in their waiter records —
// so enqueueing a blocking thread allocates nothing, which matters because
// every blocked Acquire/Wait/P passes through here.
package queue

// Priority is a scheduling priority. Larger values are more urgent. The
// paper's Threads package "includes facilities for affecting the assignment
// of threads to real processors (for example, a simple priority scheme)";
// the ready pool uses this queue to realize that scheme.
type Priority int

// PItem is an element of a PriorityQueue. The zero value (priority 0) is
// ready to Push.
type PItem[T any] struct {
	Value    T
	Priority Priority
	seq      uint64 // FIFO tiebreak among equal priorities
	index    int    // heap index, valid only while queued
	queued   bool
}

// Queued reports whether the item is currently in a PriorityQueue.
func (it *PItem[T]) Queued() bool { return it.queued }

// PriorityQueue orders items by descending Priority, breaking ties in FIFO
// order of insertion, so equal-priority scheduling is fair. The zero value
// is an empty queue, ready to use; NewPriorityQueue exists for symmetry
// with callers that want a pointer. PriorityQueue performs no locking; the
// caller serializes access (in the implementation, under the Nub spin
// lock).
type PriorityQueue[T any] struct {
	heap []*PItem[T]
	seq  uint64
}

// NewPriorityQueue returns an empty priority queue.
func NewPriorityQueue[T any]() *PriorityQueue[T] {
	return &PriorityQueue[T]{}
}

// Len returns the number of queued items.
func (pq *PriorityQueue[T]) Len() int { return len(pq.heap) }

// Empty reports whether the queue is empty.
func (pq *PriorityQueue[T]) Empty() bool { return len(pq.heap) == 0 }

// Push inserts the item. It panics if the item is already queued.
func (pq *PriorityQueue[T]) Push(it *PItem[T]) {
	if it.queued {
		panic("queue: item pushed while already on a priority queue")
	}
	pq.seq++
	it.seq = pq.seq
	it.queued = true
	it.index = len(pq.heap)
	// The Nub pushes waiters under its spin lock, so this append runs inside
	// spin-locked sections program-wide. Growth is amortized and bounded by
	// the peak number of simultaneously queued threads: the slice reaches
	// steady-state capacity after the first few waves of waiters and then
	// never reallocates, which is the same preallocation bet the paper's
	// Firefly implementation makes for its per-processor queues.
	//threadsvet:ignore nubdiscipline: amortized append; heap capacity reaches steady state at peak waiter count and no further allocation occurs under the spin lock
	pq.heap = append(pq.heap, it)
	pq.up(it.index)
}

// Pop removes and returns the highest-priority item, or nil if empty.
func (pq *PriorityQueue[T]) Pop() *PItem[T] {
	if len(pq.heap) == 0 {
		return nil
	}
	top := pq.heap[0]
	last := len(pq.heap) - 1
	pq.swap(0, last)
	pq.heap[last] = nil
	pq.heap = pq.heap[:last]
	if last > 0 {
		pq.down(0)
	}
	top.queued = false
	return top
}

// Peek returns the highest-priority item without removing it, or nil.
func (pq *PriorityQueue[T]) Peek() *PItem[T] {
	if len(pq.heap) == 0 {
		return nil
	}
	return pq.heap[0]
}

// Remove unlinks the item if queued and reports whether it was.
func (pq *PriorityQueue[T]) Remove(it *PItem[T]) bool {
	if !it.queued {
		return false
	}
	i := it.index
	if i >= len(pq.heap) || pq.heap[i] != it {
		return false
	}
	last := len(pq.heap) - 1
	pq.swap(i, last)
	pq.heap[last] = nil
	pq.heap = pq.heap[:last]
	if i < last {
		pq.down(i)
		pq.up(i)
	}
	it.queued = false
	return true
}

// Fix re-establishes heap order after the item's Priority field changed.
func (pq *PriorityQueue[T]) Fix(it *PItem[T]) {
	if !it.queued {
		return
	}
	i := it.index
	if i >= len(pq.heap) || pq.heap[i] != it {
		return
	}
	pq.down(i)
	pq.up(i)
}

// less orders by higher priority first, then lower sequence (earlier push).
func (pq *PriorityQueue[T]) less(i, j int) bool {
	a, b := pq.heap[i], pq.heap[j]
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.seq < b.seq
}

func (pq *PriorityQueue[T]) swap(i, j int) {
	pq.heap[i], pq.heap[j] = pq.heap[j], pq.heap[i]
	pq.heap[i].index = i
	pq.heap[j].index = j
}

func (pq *PriorityQueue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !pq.less(i, parent) {
			break
		}
		pq.swap(i, parent)
		i = parent
	}
}

func (pq *PriorityQueue[T]) down(i int) {
	n := len(pq.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		best := left
		if right := left + 1; right < n && pq.less(right, left) {
			best = right
		}
		if !pq.less(best, i) {
			break
		}
		pq.swap(i, best)
		i = best
	}
}

// Drain calls fn on each item in (priority desc, FIFO) order while
// removing it. fn may push the item onto another queue; it must not touch
// this queue.
func (pq *PriorityQueue[T]) Drain(fn func(*PItem[T])) {
	for it := pq.Pop(); it != nil; it = pq.Pop() {
		fn(it)
	}
}

// NewPItem returns an item ready for Push, carrying v at priority p.
func NewPItem[T any](v T, p Priority) *PItem[T] {
	return &PItem[T]{Value: v, Priority: p}
}
