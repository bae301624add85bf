// Package eventcount implements eventcounts in the style of Reed & Kanodia
// (SOSP 1977), the substrate the paper's condition-variable
// implementation is built on.
//
// An eventcount is "an atomically-readable, monotonically-increasing
// integer variable" (SRC Report 20, §Implementation: condition variables).
// The Threads implementation represents a condition variable as a pair
// (Eventcount, Queue); Wait reads the count before releasing the mutex and
// the Nub's Block(c, i) compares it again under the spin lock, which closes
// the wakeup-waiting race for any number of racing waiters — the property
// a single semaphore bit cannot provide for Broadcast.
//
// This package provides the raw counter; internal/core and
// internal/simthreads supply the queues, spin locks and scheduling around
// it.
package eventcount

import "sync/atomic"

// Count is an eventcount. The zero value is a Count at zero.
// A Count must not be copied after first use.
type Count struct {
	n atomic.Uint64
}

// Read atomically returns the current value.
func (c *Count) Read() uint64 { return c.n.Load() }

// Advance atomically increments the count by one and returns the new value.
// Advancing is how Signal and Broadcast record "an event has occurred" so
// that a thread racing between its Read and its Block sees the change.
func (c *Count) Advance() uint64 { return c.n.Add(1) }

// AdvancedSince reports whether the count has moved past the value v that
// the caller read earlier. This is exactly the test the Nub's Block
// subroutine performs before descheduling the calling thread.
func (c *Count) AdvancedSince(v uint64) bool { return c.n.Load() != v }
