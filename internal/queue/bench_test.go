package queue

import (
	"testing"

	"threads/internal/spinlock"
)

// BenchmarkPriorityContended exercises the priority queue the way the Nub
// does — short push/pop critical sections under a spin lock, many
// goroutines — by bouncing items through one shared heap: each iteration
// pushes the item the goroutine holds and pops the maximum. Items carry
// distinct priorities so the heap actually reorders instead of
// degenerating to a stack.
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
