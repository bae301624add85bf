// Package threads provides the synchronization primitives of the DEC SRC
// Threads package, as formally specified in "Synchronization Primitives for
// a Multiprocessor: A Formal Specification" (Birrell, Guttag, Horning,
// Levin; SRC Research Report 20, 1987): mutexes, Mesa-style condition
// variables, binary semaphores, and alerting.
//
// The three main types are Mutex, Condition and Semaphore. All threads may
// be assumed to execute concurrently — the programmer "can reason as if
// there were as many processors as threads" — and the primitives' semantics
// are independent of how threads are assigned to processors.
//
// # Mutual exclusion
//
// A Mutex makes a group of actions on shared variables atomic with respect
// to other threads: bracket every access in Acquire/Release (or the Lock
// helper, the analogue of Modula-2+'s LOCK e DO ... END):
//
//	var m threads.Mutex
//	threads.Lock(&m, func() {
//	    // critical section: runs start-to-finish without any other
//	    // thread entering a critical section on m
//	})
//
// # Condition variables
//
// A Condition suspends a thread until some other thread's action. A
// condition variable is always associated with a mutex-protected predicate;
// because return from Wait is only a hint, the predicate is re-evaluated in
// a loop:
//
//	m.Acquire()
//	for !predicate() {
//	    c.Wait(&m)
//	}
//	// ... use the protected state ...
//	m.Release()
//
// After making the predicate true, call Signal (one waiter can proceed) or
// Broadcast (all waiters must re-check). Signal is an efficiency measure:
// it is correct only when every waiter waits for the same predicate, and it
// may unblock more than one thread.
//
// # Semaphores
//
// Semaphore provides binary P/V. There is no notion of holding a semaphore
// and V has no precondition, so P and V need not be textually linked. The
// package discourages semaphores for ordinary data protection — mutexes and
// condition variables carry more structure — but they are required for
// synchronizing with interrupt-style code that cannot block: the handler
// thread calls P, the interrupt source calls V.
//
// # Alerting
//
// Alert(t) is a polite interrupt: a request that thread t give up a blocked
// AlertWait or AlertP (which then return Alerted) or notice the request via
// TestAlert. It is typically used for timeouts and aborts, where the
// decision to interrupt happens at a higher abstraction level than the wait.
//
// # Deadlines and cancellation
//
// The deadline variants — Condition.AlertWaitDeadline,
// Semaphore.AlertPDeadline, Mutex.AcquireDeadline — are alertable waits
// that also give up when a deadline passes, returning DeadlineExceeded.
// A wait that can block arms its thread's runtime timer, which delivers
// the deadline by Alert, and every exit path stops the timer or awaits its
// fire and drains a late alert, so they are immune to the stale-alert race
// of the hand-rolled pattern (arrange an Alert with time.AfterFunc, Stop
// the timer on completion): when completion races the timer, Stop can
// lose, and the leftover alert poisons the thread's next alertable wait.
// Prefer the deadline variants for timeouts; see Alert for the drain
// obligation the hand-rolled pattern carries. WithContext and AlertOnDone
// bridge context.Context cancellation onto the same handshake:
//
//	err := threads.WithContext(ctx, func() error {
//	    return c.AlertWait(&m)
//	})
//
// # Threads
//
// The primitives identify callers by Thread. Goroutines created by Fork are
// threads; any other goroutine is adopted the first time it needs SELF (an
// alertable wait, a deadline variant, WithContext or Self), and Detach
// frees its registration before it exits. Thread creation:
//
//	t := threads.Fork(func() { ... })
//	threads.Alert(t)
//	threads.Join(t)
//
// Fork does not wait for the new thread to run: when it returns, the
// thread may not have started, but Alert and Join on its handle are valid
// at once, and an alert sent before the thread runs is pending when it
// does. Alert on a thread whose function has returned is benign: it never
// panics or blocks, the alert stays pending on the dead thread's record
// (AlertPending reports it), and it leaves no registration or goroutine
// behind.
//
// # Fidelity
//
// The implementation follows the paper's Firefly implementation: an
// uncontended Acquire/Release pair runs entirely in "user code" (one
// test-and-set and one clear, no queue operations); the slow paths run
// under a spin lock in a Nub layer that manages queues of blocked threads;
// condition variables are (eventcount, queue) pairs, so Broadcast handles
// arbitrarily many threads racing through the wakeup-waiting window. See
// internal/core for the mechanism and DESIGN.md for the full map from the
// paper to this repository.
package threads

import "threads/internal/core"

// Thread identifies a thread of control (the specification's SELF values
// and the elements of Mutex, Condition and the alerts set).
type Thread = core.Thread

// Mutex is a mutual-exclusion lock: a Thread-valued specification variable,
// INITIALLY NIL. The zero value is ready to use.
//
//	ATOMIC PROCEDURE Acquire(VAR m: Mutex)
//	  MODIFIES AT MOST [m]  WHEN m = NIL  ENSURES m' = SELF
//	ATOMIC PROCEDURE Release(VAR m: Mutex)
//	  REQUIRES m = SELF  MODIFIES AT MOST [m]  ENSURES m' = NIL
type Mutex = core.Mutex

// Condition is a condition variable: a SET OF Thread, INITIALLY {}. The
// zero value is ready to use. Wait atomically releases the associated
// mutex and suspends the caller; Signal unblocks at least one waiter (maybe
// more); Broadcast unblocks all. Return from Wait is a hint — re-evaluate
// the predicate.
type Condition = core.Condition

// Semaphore is a binary semaphore, INITIALLY available. The zero value is
// ready to use.
//
//	ATOMIC PROCEDURE P(VAR s: Semaphore)
//	  MODIFIES AT MOST [s]  WHEN s = available  ENSURES s' = unavailable
//	ATOMIC PROCEDURE V(VAR s: Semaphore)
//	  MODIFIES AT MOST [s]  ENSURES s' = available
type Semaphore = core.Semaphore

// Stats is a snapshot of the package's contention counters (see
// EnableStats).
type Stats = core.Stats

// Alerted is returned by AlertWait and AlertP when the wait was interrupted
// by Alert; it corresponds to the specification's EXCEPTION Alerted.
var Alerted = core.Alerted

// Fork runs fn as a new thread and returns its handle without waiting for
// the thread to run: it may not have started when Fork returns, but Alert
// and Join on the handle are valid at once. Inside fn, Self is the handle.
func Fork(fn func()) *Thread { return core.Fork(fn) }

// ForkNamed is Fork with a thread name for diagnostics. Like Fork, it
// returns without waiting for the thread to run.
func ForkNamed(name string, fn func()) *Thread { return core.ForkNamed(name, fn) }

// ForkPri is Fork with an initial scheduling priority (larger is more
// urgent, default 0). The paper's Nub "does priority scheduling and time
// slicing"; on this implementation the priority orders wakeup selection:
// when a Release, V, Signal or Broadcast wakes a blocked thread, the
// highest-priority waiter is chosen, FIFO within a band, so equal-priority
// programs keep the old fairness exactly. A thread's priority can be
// changed later with (*Thread).SetPriority. The priority is installed
// before Fork returns; like Fork, ForkPri does not wait for the thread to
// run.
func ForkPri(pri int, fn func()) *Thread { return core.ForkPri(pri, fn) }

// ForkNamedPri combines ForkNamed and ForkPri.
func ForkNamedPri(name string, pri int, fn func()) *Thread { return core.ForkNamedPri(name, pri, fn) }

// Join blocks until a forked thread's function has returned.
func Join(t *Thread) { core.Join(t) }

// Self returns the calling thread, adopting the goroutine if it was not
// created by Fork. On amd64 and arm64 it costs one map lookup on a
// Fork-created thread; an adopted goroutine, and every goroutine on other
// architectures, also pays a goroutine-id parse from runtime.Stack, so hot
// alertable loops belong on Fork-created threads.
func Self() *Thread { return core.Self() }

// Detach frees the calling goroutine's thread registration if the goroutine
// was adopted; on a Fork-created thread, which cleans up when its function
// returns, it does nothing. Call it before an adopted goroutine exits to
// free the entry at once. On amd64 and arm64 an entry left behind is
// reclaimed when the runtime reuses the exited goroutine's g for a later
// goroutine that needs SELF; on other architectures it lasts for the life
// of the process.
func Detach() { core.Detach() }

// Lock brackets body with m.Acquire and m.Release — the LOCK m DO ... END
// construct. Release runs even if body panics.
func Lock(m *Mutex, body func()) { core.Lock(m, body) }

// Alert requests that thread t raise Alerted: it makes t's pending-alert
// flag true and wakes t if it is blocked in AlertWait or AlertP.
//
//	ATOMIC PROCEDURE Alert(t: Thread)
//	  MODIFIES AT MOST [alerts]  ENSURES alerts' = insert(alerts, t)
//
// Drain obligation: an alert, once inserted, persists until t consumes it
// (TestAlert, or the Alerted return of AlertWait/AlertP). Code that uses
// Alert for a timeout which can race the awaited event must, when the event
// wins, have t drain the stale alert with TestAlert before t's next
// alertable wait — cancelling the timer is not enough, since a Stop after
// the timer function has run does not retract the Alert. The deadline
// variants (AlertWaitDeadline, AlertPDeadline, AcquireDeadline) and the
// context bridge (WithContext, AlertOnDone) discharge this obligation
// internally; prefer them for timeouts.
func Alert(t *Thread) { core.Alert(t) }

// TestAlert reports whether the calling thread has a pending alert,
// consuming it.
//
//	ATOMIC PROCEDURE TestAlert() RETURNS (b: bool)
//	  ENSURES (b = (SELF IN alerts)) & (alerts' = delete(alerts, SELF))
func TestAlert() bool { return core.TestAlert() }

// AlertPending reports whether t has an undelivered alert without consuming
// it (an extension for monitoring and tests).
func AlertPending(t *Thread) bool { return core.AlertPending(t) }

// EnableStats turns contention statistics on or off and returns the
// previous setting. With statistics off the primitives pay one predictable
// branch per operation.
func EnableStats(on bool) bool { return core.EnableStats(on) }

// SnapshotStats returns the current values of the contention counters.
func SnapshotStats() Stats { return core.SnapshotStats() }

// ResetStats zeroes the contention counters.
func ResetStats() { core.ResetStats() }

// SetChecking enables a debugging mode in which mutexes record their
// holders: Release by a non-holder and recursive Acquire panic instead of
// silently misbehaving. It returns the previous setting. The production
// representation, like the paper's, records no holder.
func SetChecking(on bool) bool { return core.SetChecking(on) }
