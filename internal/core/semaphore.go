package core

// Semaphore is a binary semaphore with the traditional P and V operations.
// In the specification a Semaphore is (available, unavailable), INITIALLY
// available; the zero value of this type is available.
//
// Specification (SRC Report 20):
//
//	ATOMIC PROCEDURE P(VAR s: Semaphore)
//	  MODIFIES AT MOST [s]   WHEN s = available   ENSURES s' = unavailable
//
//	ATOMIC PROCEDURE V(VAR s: Semaphore)
//	  MODIFIES AT MOST [s]   ENSURES s' = available
//
// There is no notion of a thread "holding" a semaphore and no precondition
// on executing V, so calls of P and V need not be textually linked. The
// implementation is identical to Mutex — only the specification differs —
// and that identity is deliberate: client programs that rely only on the
// specified properties keep working if the implementations diverge.
//
// Semaphores are required for synchronizing with interrupt routines: an
// interrupt routine cannot protect shared data with a mutex (it might have
// preempted a thread inside a critical section protected by that mutex) and
// Wait/Signal require an associated mutex. Instead a thread waits for an
// interrupt-routine action by calling P, and the interrupt routine unblocks
// it by calling V; V never blocks, so it is safe in interrupt context.
type Semaphore struct {
	g gate
}

// P blocks until the semaphore is available and makes it unavailable.
func (s *Semaphore) P() {
	if !s.g.lockFast() {
		s.g.acquire(nil, &semGateStats, traceCtxFor(instr.Load(), TraceP, nil))
	}
}

// TryP makes the semaphore unavailable if it is available and reports
// whether it did (extension, mirroring Mutex.TryAcquire).
func (s *Semaphore) TryP() bool {
	if s.g.lockFast() {
		return true
	}
	if !s.g.tryAcquire(traceCtxFor(instr.Load(), TraceP, nil)) {
		return false
	}
	statInc(statPFast)
	return true
}

// V makes the semaphore available and, if threads are blocked in P, makes
// one of them ready. V never blocks and may be called from any context,
// including the simulated interrupt routines in the examples.
func (s *Semaphore) V() {
	if !s.g.unlockFast() {
		s.g.release(&semGateStats, traceCtxFor(instr.Load(), TraceV, nil))
	} else if s.g.qlen.Load() != 0 {
		s.g.releaseNub(&semGateStats)
	}
}

// AlertP is P, except that it may return Alerted instead of acquiring.
//
// Specification:
//
//	ATOMIC PROCEDURE AlertP(VAR s: Semaphore) RAISES {Alerted}
//	  MODIFIES AT MOST [s, alerts]
//	  RETURNS WHEN s = available
//	    ENSURES (s' = unavailable) & UNCHANGED [alerts]
//	  RAISES Alerted WHEN SELF IN alerts
//	    ENSURES (alerts' = delete(alerts, SELF)) & UNCHANGED [s]
//
// The two WHEN clauses are not disjoint; when both are satisfied the
// implementation makes an arbitrary choice (the non-determinism discussed
// in the paper — the original specification required raising if possible,
// and was weakened to match the more efficient implementation).
func (s *Semaphore) AlertP() error { return s.alertP(Self()) }

// alertP is AlertP with SELF already recovered, so AlertPDeadline pays the
// identity lookup once per operation rather than once per layer.
func (s *Semaphore) alertP(t *Thread) error {
	tc := traceCtxFor(instr.Load(), TraceAlertPReturn, t)
	if s.g.alertableAcquire(t, &semGateStats, tc) {
		// The alerts-set deletion is the linearization point of the RAISES
		// case; consume the flag and stamp it under t's alertLock, which
		// serializes it against Alert's insertion.
		var obj uint64
		if tc.kind != TraceNone {
			obj = traceObjID(&s.g.traceID)
		}
		t.consumeAlertEmit(TraceAlertPRaise, obj, 0)
		statInc(statAlertedP)
		return Alerted
	}
	return nil
}

// Available reports whether the semaphore is available (advisory).
func (s *Semaphore) Available() bool { return !s.g.locked() }

// Waiters returns the number of threads blocked in P (advisory).
func (s *Semaphore) Waiters() int { return s.g.waiters() }
