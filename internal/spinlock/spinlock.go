// Package spinlock implements the primitive mutual-exclusion mechanism the
// paper's Nub subroutines execute under: a test-and-set spin lock.
//
// The paper (SRC Report 20, §Implementation) describes it as "a globally
// shared bit: it is acquired by a processor busy-waiting in a test-and-set
// loop; it is released by clearing the bit". On the Go runtime a pure
// busy-wait can starve the holder of a CPU, so the loop yields to the
// scheduler with exponentially increasing eagerness; the observable
// semantics (mutual exclusion, no queuing, no fairness guarantee) are those
// of the hardware spin lock.
package spinlock

import (
	"runtime"
	"sync/atomic"
)

// Lock is a spin lock: the paper's single shared bit. The zero value is an
// unlocked Lock. A Lock must not be copied after first use.
type Lock struct {
	bit atomic.Uint32
}

// active spin iterations before the acquirer starts yielding its processor.
// On a multiprocessor the holder is usually running, so a short busy wait
// wins; past that, the holder is likely descheduled and spinning is waste.
const activeSpin = 16

// pauseIters is how much Pause delay one active-spin iteration inserts
// between observations of the lock bit.
const pauseIters = 8

// Lock acquires the spin lock, busy-waiting until the bit is clear.
func (l *Lock) Lock() {
	if l.bit.CompareAndSwap(0, 1) {
		return // the common, uncontended path: one test-and-set
	}
	for {
		// The spin budget resets every round: it measures how long the
		// *current* holder has kept us waiting. (Carrying it across
		// rounds meant one long first wait degraded every later round
		// to an immediate Gosched, even against holders that release
		// within a few cycles.)
		spins := 0
		// Test before test-and-set: spin on a plain load so the
		// cache line is not bounced by failed RMW operations.
		for l.bit.Load() != 0 {
			spins++
			if spins > activeSpin {
				runtime.Gosched()
			} else {
				Pause(pauseIters)
			}
		}
		if l.bit.CompareAndSwap(0, 1) {
			return
		}
	}
}

// pauseBeacon is always zero; reading it gives Pause a side effect the
// compiler cannot delete without the loop itself doing any shared-memory
// writes (which would defeat the point by bouncing a cache line).
var pauseBeacon atomic.Uint32

// Pause burns a few cycles off the processor's speculation budget between
// polls of a contended location — the software stand-in for the PAUSE /
// YIELD hint the hardware spin loop in the paper would use. Unlike
// runtime.Gosched it does not deschedule the caller.
func Pause(iters int) {
	for i := 0; i < iters; i++ {
		if pauseBeacon.Load() != 0 {
			runtime.Gosched() // unreachable; keeps the loop material
		}
	}
}

// TryLock acquires the lock if it is free and reports whether it did.
func (l *Lock) TryLock() bool {
	return l.bit.CompareAndSwap(0, 1)
}

// Unlock releases the spin lock by clearing the bit. It must only be called
// by the holder; the lock does not record holding threads (just as the
// paper's mutex implementation records no holder), so misuse is not
// detected.
func (l *Lock) Unlock() {
	l.bit.Store(0)
}

// Held reports whether the lock is currently held by some processor. It is
// advisory: the answer may be stale by the time the caller inspects it.
func (l *Lock) Held() bool {
	return l.bit.Load() != 0
}
