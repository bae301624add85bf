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

// Deadlines reach blocked threads by Alert — the paper's only cancellation
// mechanism ("typically to implement things such as timeouts and aborts") —
// from one Go runtime timer per thread. A deadline variant arms the timer
// only when its wait can block, and its epilogue (finishDeadline, run from
// a defer so a panic through the wait takes it too) stops the timer or
// awaits its fire on every exit path, so the classic stale-alert race — a
// deadline that fires after the wait is satisfied poisoning the thread's
// NEXT alertable wait — cannot happen by construction.

// deadlineTimer is a thread's deadline timer. The thread's first deadline
// wait creates it and later waits Reset it, so arming allocates nothing in
// steady state. Only the owning thread arms and stops it.
type deadlineTimer struct {
	timer *time.Timer
	// fired carries one token per fire. The fire function sends it after
	// its Alert, as its last access to the thread; a stop that lost the
	// race receives it before the episode ends.
	fired chan struct{}
}

// armDeadline starts t's timer to Alert t at deadline and returns it; nil
// means the deadline has passed and nothing was armed. Only t itself may
// call this, and only with the previous episode finished (cancelAndDrain
// returned).
func (t *Thread) armDeadline(deadline time.Time) *deadlineTimer {
	d := time.Until(deadline)
	if d <= 0 {
		return nil
	}
	statInc(statTimerArm)
	e := t.timerE
	if e == nil {
		e = &deadlineTimer{fired: make(chan struct{}, 1)}
		e.timer = time.AfterFunc(d, func() { e.fire(t) })
		t.timerE = e
		return e
	}
	e.timer.Reset(d)
	return e
}

// fire is the timer's function, run by the runtime on a fresh goroutine.
// Traced, Alert adopts that goroutine to stamp its event, so Detach frees
// the registry entry before the goroutine exits.
func (e *deadlineTimer) fire(t *Thread) {
	Alert(t)
	Detach()
	statInc(statTimerFire)
	e.fired <- struct{}{}
}

// cancelAndDrain ends an armed episode and reports whether the deadline
// fired. Exactly one of two things is true on return:
//
//   - fired == false: Stop won; the timer never alerted and never will.
//   - fired == true: the fire had started, and its token says the Alert
//     was delivered before return. Whether the alert is still pending on
//     the thread depends on whether the wait consumed it; the caller
//     drains it if not (finishDeadline).
//
// Only the owning thread calls this, once per armDeadline.
func (e *deadlineTimer) cancelAndDrain() (fired bool) {
	if e.timer.Stop() {
		statInc(statTimerCancel)
		return false
	}
	<-e.fired
	return true
}

// testDeadlineRaceWindow, when non-nil, runs between the inner wait's
// return and the timer cancel on every deadline variant. Tests use it to
// deterministically lose the completion/deadline race: sleeping here until
// the deadline has fired proves the drain makes a late-firing timer
// harmless (TestDeadlineFiresAfterSatisfiedWait).
var testDeadlineRaceWindow func()

// finishDeadline is the shared epilogue of the deadline variants: every
// exit path stops its own timer and drains a late-delivered alert, so a
// deadline that fires after the wait is satisfied can never poison the
// thread's next alertable wait — the stale-alert race is fixed here, by
// construction, rather than at every call site. The variants run it from a
// defer, so a panic through the wait stops the timer as well.
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
func finishDeadline(t *Thread, e *deadlineTimer, waitErr error) error {
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
func (c *Condition) AlertWaitDeadline(m *Mutex, deadline time.Time) (err error) {
	t := Self()
	e := t.armDeadline(deadline)
	if e == nil {
		return DeadlineExceeded
	}
	defer func() { err = finishDeadline(t, e, err) }()
	return c.alertWait(m, t)
}

// AlertPDeadline is AlertP with a deadline: nil when the semaphore was
// acquired, DeadlineExceeded when the deadline passed first, Alerted on a
// genuine user alert. An available semaphore is taken without arming the
// timer, so a deadline already in the past degenerates to TryP.
func (s *Semaphore) AlertPDeadline(deadline time.Time) (err error) {
	if s.TryP() {
		return nil
	}
	t := Self()
	e := t.armDeadline(deadline)
	if e == nil {
		return DeadlineExceeded
	}
	defer func() { err = finishDeadline(t, e, err) }()
	return s.alertP(t)
}

// AcquireDeadline is Acquire with a deadline: nil when the mutex was
// acquired (the caller is the holder and must Release), DeadlineExceeded
// when the deadline passed first, Alerted on a genuine user alert. A free
// mutex is taken without arming the timer, so a deadline already in the
// past degenerates to TryAcquire.
//
// The paper's Acquire is not alertable — only AlertWait and AlertP respond
// to alerts — so this is an extension: it blocks with AlertP's discipline
// on the mutex gate (the two representations are identical) and consumes
// the alert with TestAlert, an operation the specification admits anywhere.
func (m *Mutex) AcquireDeadline(deadline time.Time) (err error) {
	//threadsvet:ignore lockpair: returning as holder is AcquireDeadline's contract (nil means acquired); the caller Releases
	if m.TryAcquire() {
		return nil
	}
	t := Self()
	mode := instr.Load()
	if mode&instrCheck != 0 && m.holder.Load() == t.id {
		panic("threads: recursive AcquireDeadline would deadlock: " + t.Name() + " already holds the mutex")
	}
	e := t.armDeadline(deadline)
	if e == nil {
		return DeadlineExceeded
	}
	defer func() { err = finishDeadline(t, e, err) }()
	if m.g.alertableAcquire(t, &mutexGateStats, traceCtxFor(mode, TraceAcquire, t)) {
		// Unlike AlertP there is no Raise trace action for a mutex, so
		// the alerts-set deletion is a TestAlert: spec-admissible at any
		// point, and stamped honestly when tracing.
		_ = testAlertT(t) // consumes the alert that ended the wait; finishDeadline maps it to DeadlineExceeded or Alerted
		return Alerted
	}
	m.entered(mode, t)
	return nil
}
