package core

import "errors"

// Alerted is the exception of the alerting facility. AlertWait and AlertP
// return it (RAISES Alerted) when they take the alerted path.
//
// Specification:
//
//	VAR alerts: SET OF Thread INITIALLY {}
//	EXCEPTION Alerted
var Alerted = errors.New("threads: alerted")

// Alert requests that thread t raise the exception Alerted. Alerting is a
// polite form of interrupt, used with both semaphores and condition
// variables, typically for timeouts and aborts: the decision to interrupt
// is made at a higher abstraction level than the one in which the thread is
// blocked, where the relevant condition variable or semaphore is not
// readily accessible.
//
//	ATOMIC PROCEDURE Alert(t: Thread)
//	  MODIFIES AT MOST [alerts]   ENSURES alerts' = insert(alerts, t)
//
// Alert never blocks. If t is currently blocked in AlertWait or AlertP,
// Alert also makes it ready; if not, the alert stays pending until t calls
// TestAlert, AlertWait or AlertP. Alerting a thread blocked in plain Wait,
// P or Acquire does not disturb it — only the alertable operations respond.
//
// Drain obligation: an alert, once inserted, persists until t consumes it.
// A caller using Alert for a timeout that can RACE the awaited event
// (time.AfterFunc firing against normal completion, say) therefore owns a
// cleanup obligation — if the event wins, the now-stale alert must be
// drained (TestAlert on t, by t) before t's next alertable wait, or it will
// poison that wait. Cancelling the timer is not enough: a Stop after the
// function has run does not retract the Alert. The deadline variants
// (AlertWaitDeadline, AlertPDeadline, AcquireDeadline) discharge this
// obligation internally and should be preferred for timeouts.
func Alert(t *Thread) {
	statInc(statAlerts)
	tc := traceCtxFor(instr.Load(), TraceAlert, nil)
	traced := tc.kind != TraceNone
	var seq uint64
	if !traced {
		// Setting the flag before taking the lock narrows the window in
		// which a concurrent blocking path tests it; traced, the store
		// moves under the lock so the stamp and the insertion are one
		// critical section.
		t.alerted.Store(true)
	}
	t.alertLock.Lock()
	if traced {
		t.alerted.Store(true)
		seq = nextTraceSeq()
	}
	// The claim happens under alertLock, which every blocking path holds
	// while registering and unregistering its waiter: while the lock is
	// held and alertW is non-nil, the registered episode cannot end, so
	// the claim cannot leak onto a reused waiter's later episode.
	w := t.alertW
	woke := w != nil && w.claim(reasonAlert)
	t.alertLock.Unlock()
	if traced {
		traceEmit(seq, tc.kind, tc.tid, 0, t.id, false)
	}
	if woke {
		w.wake()
		statInc(statAlertWakes)
	}
}

// TestAlert reports whether there is a pending request for the calling
// thread to raise Alerted, consuming it.
//
//	ATOMIC PROCEDURE TestAlert() RETURNS (b: bool)
//	  MODIFIES AT MOST [alerts]
//	  ENSURES (b = (SELF IN alerts)) & (alerts' = delete(alerts, SELF))
func TestAlert() bool { return testAlertT(Self()) }

// testAlertT is TestAlert with SELF already recovered. The deadline
// epilogue (finishDeadline) uses it so one deadline operation computes SELF
// once — on an adopted goroutine Self parses the runtime.Stack header, which
// dominates the cost of an alertable operation, so the variants must not
// pay it twice.
func testAlertT(t *Thread) bool {
	var b bool
	if tracing() {
		// Stamp the read-and-delete under alertLock so it cannot straddle a
		// concurrent Alert's insertion: the trace shows either the alert
		// consumed (Alert before TestAlert) or pending (after), never both.
		t.alertLock.Lock()
		b = t.alerted.Swap(false)
		seq := nextTraceSeq()
		t.alertLock.Unlock()
		traceEmit(seq, TraceTestAlert, t.id, 0, 0, b)
	} else {
		b = t.alerted.Swap(false)
	}
	if b {
		statInc(statTestAlertTrue)
	}
	return b
}

// AlertPending reports whether t has an undelivered alert, without
// consuming it (advisory; an extension used by monitoring code and tests).
func AlertPending(t *Thread) bool { return t.alerted.Load() }

// setAlertWaiter publishes w as the waiter Alert should wake. It is set
// before the alerted flag is tested in the blocking paths, and Alert sets
// the flag before reading the registration, so at least one side always
// observes the other: no alert can slip between the test and the park.
func (t *Thread) setAlertWaiter(w *waiter) {
	t.alertLock.Lock()
	t.alertW = w
	t.alertLock.Unlock()
}

func (t *Thread) clearAlertWaiter() {
	t.alertLock.Lock()
	t.alertW = nil
	t.alertLock.Unlock()
}

// consumeAlertEmit deletes SELF from the alerts set on an Alerted return
// (AlertP.Raise, AlertResume.Raise) and, when tracing, stamps the deletion
// under t's alertLock — the lock that serializes every transition of this
// thread's membership bit — so the Raise event cannot invert with a
// concurrent Alert or TestAlert.
func (t *Thread) consumeAlertEmit(kind TraceKind, obj, obj2 uint64) {
	if !tracing() {
		t.alerted.Store(false)
		return
	}
	t.alertLock.Lock()
	t.alerted.Store(false)
	seq := nextTraceSeq()
	t.alertLock.Unlock()
	traceEmit(seq, kind, t.id, obj, obj2, false)
}
