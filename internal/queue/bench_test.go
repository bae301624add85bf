package queue

import (
	"testing"

	"threads/internal/spinlock"
)

// Contended benchmarks for both queue variants, exercised the way the Nub
// exercises them: short push/pop critical sections under a spin lock, many
// goroutines. The FIFO is what the gates use today; the priority queue is
// shipped for the upcoming priority-scheduling work, and this benchmark is
// its baseline so that PR can see what the heap costs under contention.

// BenchmarkFIFOContended bounces nodes through one shared FIFO: each
// iteration pushes the node the goroutine holds and pops the current head
// (usually another goroutine's node), so the queue stays near steady-state
// length and every operation touches the shared head/tail links.
func BenchmarkFIFOContended(b *testing.B) {
	var (
		l spinlock.Lock
		q FIFO[int]
	)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		n := &Node[int]{}
		for pb.Next() {
			l.Lock()
			q.Push(n)
			n = q.Pop()
			l.Unlock()
		}
	})
	// Drain so a reuse of the benchmark state starts clean.
	for q.Pop() != nil {
	}
}

// BenchmarkPriorityContended is the same traffic shape through the heap:
// push the held item, pop the maximum. Items carry distinct priorities so
// the heap actually reorders instead of degenerating to a stack.
func BenchmarkPriorityContended(b *testing.B) {
	var l spinlock.Lock
	q := NewPriorityQueue[int]()
	var id int
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		l.Lock()
		id++
		it := NewPItem(id, Priority(id%8))
		l.Unlock()
		for pb.Next() {
			l.Lock()
			q.Push(it)
			it = q.Pop()
			// Rotate the popped item's priority so the heap keeps moving.
			it.Priority = (it.Priority + 3) % 8
			l.Unlock()
		}
	})
	for q.Pop() != nil {
	}
}
