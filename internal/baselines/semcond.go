package baselines

import (
	"sync/atomic"

	"threads/internal/core"
)

// SemCond is the semaphore-based condition variable the paper sketches and
// rejects (§Implementation: condition variables):
//
//	"The semantics of Wait and Signal could be achieved by representing
//	each condition variable as a semaphore, and implementing Wait(m, c) as
//	Release(m); P(c); Acquire(m) and Signal(c) as V(c). The one bit in the
//	semaphore c would cover the wakeup-waiting race. Unfortunately, this
//	implementation does not generalize to Broadcast(c)."
//
// Wait and Signal are correct: a Signal that lands in a waiter's
// release-to-P window leaves the semaphore available, so the P returns
// immediately — one bit of wakeup memory. Broadcast is the failure:
// arbitrarily many threads may be racing at the semicolon, and however many
// times V is called, a binary semaphore holds at most one pending wakeup,
// so all but one racer (and any not-yet-released waiters beyond those the
// loop manages to feed one at a time) can be stranded. Experiment E5 counts
// the stranded threads.
type SemCond struct {
	m *core.Mutex
	s core.Semaphore
	// waiters approximates the number of threads inside Wait, so
	// Broadcast knows how many Vs to attempt.
	waiters atomic.Int32
}

// NewSemCond returns a semaphore-based condition variable tied to m. The
// backing semaphore is drained (INITIALLY available → unavailable) so the
// first Wait blocks.
func NewSemCond(m *core.Mutex) *SemCond {
	sc := &SemCond{m: m}
	sc.s.P()
	return sc
}

// Wait is Release(m); P(c); Acquire(m). The caller must hold m; returns
// holding m. Like the Threads Wait, return is only a hint.
func (sc *SemCond) Wait() {
	sc.waiters.Add(1)
	sc.m.Release() //threadsvet:ignore lockpair: Wait is Release(m); P(c); Acquire(m) on the caller-held mutex
	sc.s.P()
	sc.waiters.Add(-1)
	sc.m.Acquire() //threadsvet:ignore lockpair: reacquire-on-return half of the semaphore-based Wait
}

// Signal is V(c): it wakes one waiter, or — if none is committed yet — the
// single semaphore bit remembers the wakeup for the next Wait. This is
// correct for one-at-a-time signalling.
func (sc *SemCond) Signal() {
	sc.s.V()
}

// Broadcast attempts to release every waiter by calling V once per waiter
// it can see. It is fundamentally broken — the paper's point — because
// consecutive Vs coalesce in the binary semaphore: a V performed before the
// previous wakeup was consumed is lost, so racing waiters are stranded.
// Callers measuring E5 count the threads that remain blocked.
func (sc *SemCond) Broadcast() {
	n := int(sc.waiters.Load())
	for i := 0; i < n; i++ {
		sc.s.V()
	}
}

// Guaranteed reports Mesa-style hint semantics.
func (sc *SemCond) Guaranteed() bool { return false }

// SemCondMonitor packages a mutex with SemCond conditions behind the
// Monitor interface (Signal-only workloads; Broadcast is the known
// failure).
type SemCondMonitor struct {
	mu core.Mutex
}

// NewSemCondMonitor returns a monitor whose condition variables are
// semaphore-based.
func NewSemCondMonitor() *SemCondMonitor { return &SemCondMonitor{} }

// Acquire enters the monitor.
func (m *SemCondMonitor) Acquire() { m.mu.Acquire() } //threadsvet:ignore lockpair: Monitor adapter; Acquire/Release bracket in the benchmark harness, not here

// Release leaves the monitor.
func (m *SemCondMonitor) Release() { m.mu.Release() } //threadsvet:ignore lockpair: Monitor adapter; the matching Acquire is behind the same interface

// Name identifies the implementation.
func (m *SemCondMonitor) Name() string { return "semcond" }

// NewCond creates a semaphore-based condition variable.
func (m *SemCondMonitor) NewCond() Cond { return NewSemCond(&m.mu) }
