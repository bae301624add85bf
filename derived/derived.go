// Package derived provides higher-level synchronization objects built
// entirely on the threads package's primitives, in the styles the paper's
// informal description motivates: a buffer Pool ("freeing a buffer back
// into a pool" is the paper's canonical Signal example), a readers-writer
// lock (its canonical Broadcast example), a counting semaphore layered on
// mutex + condition (the "higher level locking scheme" whose implementation
// "might require that some threads wait until a lock is available"),
// barriers, and latches.
//
// Every object follows the paper's usage discipline: shared state guarded
// by a Mutex, condition variables paired with predicates, Wait in a loop
// (return is a hint), Signal when one waiter can benefit, Broadcast when
// several might. The one exception is the readers-writer lock's reader
// count, an atomic word that keeps uncontended reads in user code, as the
// paper's own Mutex does.
package derived

import "threads"

// CountingSemaphore generalizes the binary threads.Semaphore to N permits,
// built from a mutex and one condition variable as the paper's layering
// suggests. Acquire blocks while no permit is free; Release never blocks.
type CountingSemaphore struct {
	mu      threads.Mutex
	nonZero threads.Condition
	permits int //threads:guardedby mu
}

// NewCountingSemaphore returns a semaphore with the given initial permits.
func NewCountingSemaphore(permits int) *CountingSemaphore {
	if permits < 0 {
		panic("derived: negative permit count")
	}
	return &CountingSemaphore{permits: permits}
}

// Acquire takes one permit, waiting until one is free.
func (s *CountingSemaphore) Acquire() {
	s.mu.Acquire()
	for s.permits == 0 {
		s.nonZero.Wait(&s.mu)
	}
	s.permits--
	s.mu.Release()
}

// TryAcquire takes a permit if one is free, without blocking.
func (s *CountingSemaphore) TryAcquire() bool {
	s.mu.Acquire()
	ok := s.permits > 0
	if ok {
		s.permits--
	}
	s.mu.Release()
	return ok
}

// AlertAcquire is Acquire, except a pending or arriving Alert interrupts
// the wait and returns threads.Alerted.
func (s *CountingSemaphore) AlertAcquire() error {
	s.mu.Acquire()
	for s.permits == 0 {
		if err := s.nonZero.AlertWait(&s.mu); err != nil {
			s.mu.Release()
			return err
		}
	}
	s.permits--
	s.mu.Release()
	return nil
}

// Release returns one permit; only one blocked Acquire can benefit, so
// Signal suffices.
func (s *CountingSemaphore) Release() {
	s.mu.Acquire()
	s.permits++
	s.mu.Release()
	s.nonZero.Signal()
}

// Permits reports the free permits (advisory).
func (s *CountingSemaphore) Permits() int {
	s.mu.Acquire()
	defer s.mu.Release()
	return s.permits
}

// Barrier blocks each arriving thread until n threads have arrived, then
// releases them all — every waiter must resume, so Broadcast is required
// for correctness. Barriers are cyclic: the next n arrivals form the next
// generation.
type Barrier struct {
	p Phaser
}

// NewBarrier returns a barrier for parties of n (n ≥ 1).
func NewBarrier(n int) *Barrier {
	if n < 1 {
		panic("derived: barrier size must be at least 1")
	}
	return &Barrier{p: Phaser{parties: n}}
}

// Await blocks until n threads (including the caller) have called Await in
// this generation. It returns true for exactly one caller per generation
// (the one that tripped the barrier), which may do per-generation work.
func (b *Barrier) Await() (tripped bool) { return b.p.ArriveAndAwait() }

// Latch is a one-shot gate: threads Wait until Open is called; once open it
// never closes. (The paper's "writer lock released frees all readers"
// shape, in its simplest form.)
type Latch struct {
	mu     threads.Mutex
	opened threads.Condition
	open   bool
}

// NewLatch returns a closed latch.
func NewLatch() *Latch { return &Latch{} }

// Open releases every current and future waiter. Idempotent.
func (l *Latch) Open() {
	l.mu.Acquire()
	already := l.open
	l.open = true
	l.mu.Release()
	if !already {
		l.opened.Broadcast()
	}
}

// Wait blocks until the latch is open.
func (l *Latch) Wait() {
	l.mu.Acquire()
	for !l.open {
		l.opened.Wait(&l.mu)
	}
	l.mu.Release()
}

// IsOpen reports whether the latch has been opened.
func (l *Latch) IsOpen() bool {
	l.mu.Acquire()
	defer l.mu.Release()
	return l.open
}

// Pool is a fixed set of reusable buffers — the paper's canonical example
// of when Signal is preferable to Broadcast: "when freeing a buffer back
// into a pool", only one blocked thread can benefit.
type Pool[T any] struct {
	mu    threads.Mutex
	freed threads.Condition
	free  []T //threads:guardedby mu
}

// NewPool returns a pool initially holding the given items.
func NewPool[T any](items ...T) *Pool[T] {
	p := &Pool[T]{}
	p.free = append(p.free, items...)
	return p
}

// Get takes an item, waiting until one is free.
func (p *Pool[T]) Get() T {
	p.mu.Acquire()
	for len(p.free) == 0 {
		p.freed.Wait(&p.mu)
	}
	item := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.mu.Release()
	return item
}

// TryGet takes an item if one is free.
func (p *Pool[T]) TryGet() (T, bool) {
	p.mu.Acquire()
	defer p.mu.Release()
	if len(p.free) == 0 {
		var zero T
		return zero, false
	}
	item := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return item, true
}

// Put frees an item back into the pool; one waiter can benefit, so Signal.
func (p *Pool[T]) Put(item T) {
	p.mu.Acquire()
	p.free = append(p.free, item)
	p.mu.Release()
	p.freed.Signal()
}

// Size reports the free items (advisory).
func (p *Pool[T]) Size() int {
	p.mu.Acquire()
	defer p.mu.Release()
	return len(p.free)
}
