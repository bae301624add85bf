package core

import (
	"context"
	"time"
)

// DeadlineExceeded is returned by the deadline variants (AlertWaitDeadline,
// AlertPDeadline, AcquireDeadline) when the wait ended because its own
// deadline fired. It matches context.DeadlineExceeded under errors.Is, so
// callers mixing the two cancellation worlds need one test.
var DeadlineExceeded error = deadlineError{}

type deadlineError struct{}

func (deadlineError) Error() string { return "threads: deadline exceeded" }

func (deadlineError) Is(target error) bool { return target == context.DeadlineExceeded }

// testDeadlineRaceWindow, when non-nil, runs between the inner wait's
// return and the timer cancel on every deadline variant. Tests use it to
// deterministically lose the completion/deadline race: sleeping here until
// the deadline has fired proves the drain makes a late-firing timer
// harmless (TestDeadlineFiresAfterSatisfiedWait).
var testDeadlineRaceWindow func()

// finishDeadline is the shared epilogue of the deadline variants: every
// exit path cancels its own timer entry and drains a late-delivered alert,
// so a deadline that fires after the wait is satisfied can never poison the
// thread's next alertable wait — the stale-alert race is fixed here, by
// construction, rather than at every call site.
//
// waitErr is the inner alertable wait's result (nil or Alerted, with the
// alert flag already consumed on the Alerted path). The mapping:
//
//	wait satisfied, timer never fired   → nil
//	wait satisfied, timer fired late    → nil (stale alert drained)
//	wait alerted,   timer fired         → DeadlineExceeded
//	wait alerted,   timer did not fire  → Alerted (a genuine user Alert)
//
// The drain is a literal TestAlert — an operation the specification admits
// at any point — so with conformance tracing on, the consumed alert appears
// honestly in the trace instead of vanishing. One caveat is inherited from
// the spec's single-bit alerts set: a user Alert that merges with the
// timer's (both insert SELF into alerts; the set has one bit per thread)
// is consumed by the same drain, exactly as if the thread had called
// TestAlert itself between the two. Callers needing lossless user alerts
// should re-Alert on a channel of their own, as the paper's higher layers
// do.
func finishDeadline(t *Thread, e *timerEntry, waitErr error) error {
	if testDeadlineRaceWindow != nil {
		testDeadlineRaceWindow()
	}
	fired := e.cancelAndDrain()
	if fired {
		// The timer's Alert was delivered, but the wait may not have
		// consumed it: the wait could have been satisfied first, or ended
		// by a user Alert before the timer's landed. Either way the flag
		// may still be pending on this thread — consume it now, while it
		// is provably ours, so it cannot leak into a later wait.
		if testAlertT(t) {
			statInc(statTimerDrain)
		}
		if waitErr != nil {
			return DeadlineExceeded
		}
		return nil
	}
	return waitErr
}

// AlertWaitDeadline is AlertWait with a deadline: it returns nil when the
// wait was satisfied, DeadlineExceeded when the deadline passed first, and
// Alerted when another thread alerted the caller. On every return the
// calling thread is inside a new critical section on m, and — unlike the
// time.AfterFunc + Alert pattern this replaces — no stale alert from this
// deadline can survive into a later wait.
//
// A deadline already in the past does not wait and does not leave the
// critical section: the caller still holds m and DeadlineExceeded is
// returned immediately.
func (c *Condition) AlertWaitDeadline(m *Mutex, deadline time.Time) error {
	if !time.Now().Before(deadline) {
		return DeadlineExceeded
	}
	t := Self()
	e := t.armDeadline(deadline)
	return finishDeadline(t, e, c.alertWait(m, t))
}

// AlertPDeadline is AlertP with a deadline: nil when the semaphore was
// acquired, DeadlineExceeded when the deadline passed first, Alerted on a
// genuine user alert. A deadline already in the past degenerates to TryP.
func (s *Semaphore) AlertPDeadline(deadline time.Time) error {
	if !time.Now().Before(deadline) {
		if s.TryP() {
			return nil
		}
		return DeadlineExceeded
	}
	t := Self()
	e := t.armDeadline(deadline)
	return finishDeadline(t, e, s.alertP(t))
}

// AcquireDeadline is Acquire with a deadline: nil when the mutex was
// acquired (the caller is the holder and must Release), DeadlineExceeded
// when the deadline passed first, Alerted on a genuine user alert. A
// deadline already in the past degenerates to TryAcquire.
//
// The paper's Acquire is not alertable — only AlertWait and AlertP respond
// to alerts — so this is an extension: it blocks with AlertP's discipline
// on the mutex gate (the two representations are identical) and consumes
// the alert with TestAlert, an operation the specification admits anywhere.
func (m *Mutex) AcquireDeadline(deadline time.Time) error {
	t := Self()
	mode := instr.Load()
	if mode&instrCheck != 0 && m.holder.Load() == t.id {
		panic("threads: recursive AcquireDeadline would deadlock: " + t.name + " already holds the mutex")
	}
	if !time.Now().Before(deadline) {
		//threadsvet:ignore lockpair: returning as holder is AcquireDeadline's contract (nil means acquired); the caller Releases
		if m.TryAcquire() {
			return nil
		}
		return DeadlineExceeded
	}
	e := t.armDeadline(deadline)
	var waitErr error
	if m.g.alertableAcquire(t, &mutexGateStats, traceCtxFor(mode, TraceAcquire, t)) {
		// Unlike AlertP there is no Raise trace action for a mutex, so
		// the alerts-set deletion is a TestAlert: spec-admissible at any
		// point, and stamped honestly when tracing.
		_ = testAlertT(t) // consumes the alert that ended the wait; finishDeadline maps it to DeadlineExceeded or Alerted
		waitErr = Alerted
	} else {
		m.entered(mode, t)
	}
	return finishDeadline(t, e, waitErr)
}
