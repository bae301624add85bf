// Package core implements the Threads synchronization primitives of SRC
// Report 20 on the real Go runtime.
//
// The implementation mirrors the paper's two-layer structure
// (§Implementation):
//
//   - The "user code" layer is the fast path executed entirely with atomic
//     instructions in the caller: Acquire is a test-and-set of the lock
//     bit; Release clears the bit and calls the Nub only if the queue of
//     blocked threads is non-empty; Signal and Broadcast return immediately
//     when no thread is in the condition variable — queued, or between its
//     Enqueue and the Nub's Block. Whoever takes a waiter out (Signal,
//     Broadcast, or the waiter itself when Block elides the wait or an
//     Alert removes it) ends its count, so a woken thread on its way back
//     to the mutex no longer sends Signals into the Nub.
//
//   - The "nub code" layer runs under a more primitive mutual-exclusion
//     mechanism, a test-and-set spin lock (internal/spinlock). Nub routines
//     acquire the spin lock, perform their visible actions — enqueueing the
//     caller, re-testing the lock bit, moving waiters out of condition
//     queues — and release the spin lock.
//
// A mutex is represented by a pair (lock bit, queue); the lock bit is 0 iff
// the mutex is NIL in the specification's terms, and no holder is recorded
// (the paper notes the debugger cannot tell which thread holds a mutex).
// A semaphore has the identical representation; P is Acquire and V is
// Release. A condition variable is a pair (eventcount, queue); Wait reads
// the eventcount, releases the mutex and calls Block(c, i), which under the
// spin lock compares the count and either deschedules the caller or — if a
// Signal or Broadcast intervened — returns at once. That comparison closes
// the wakeup-waiting race for arbitrarily many racing waiters, which is why
// the implementation uses an eventcount rather than a semaphore bit.
//
// Where the Firefly Nub descheduled a thread and ran its scheduling
// algorithm to reassign the processor, this implementation parks the
// goroutine on a one-shot handoff channel and lets the Go scheduler reuse
// the processor; the paper's specification is explicitly independent of
// processor assignment, so the substitution is behavior-preserving.
//
// Alerting follows the corrected specification: when AlertWait raises
// Alerted the thread is removed from the condition variable, so a later
// Signal is never absorbed by a departed thread (the bug Greg Nelson found
// in the original specification). Wakers arbitrate with a compare-and-swap
// on the waiter's wake reason, so a racing Signal and Alert wake exactly
// one path and Signal re-pops when it loses the race.
package core
