package core

import (
	"sync/atomic"

	"threads/internal/eventcount"
	"threads/internal/queue"
	"threads/internal/spinlock"
)

// Condition is a condition variable. In the specification a Condition is a
// SET OF Thread, INITIALLY {} — the set of threads enqueued and not yet
// resumed; the zero value of this type is that initial state.
//
// Specification (SRC Report 20):
//
//	PROCEDURE Wait(VAR m: Mutex; VAR c: Condition) =
//	  COMPOSITION OF Enqueue; Resume END
//	  REQUIRES m = SELF
//	  MODIFIES AT MOST [m, c]
//	  ATOMIC ACTION Enqueue ENSURES (c' = insert(c, SELF)) & (m' = NIL)
//	  ATOMIC ACTION Resume WHEN (m = NIL) & NOT (SELF IN c)
//	    ENSURES (m' = SELF) & UNCHANGED [c]
//
//	ATOMIC PROCEDURE Signal(VAR c: Condition)
//	  MODIFIES AT MOST [c]   ENSURES (c' = {}) | (c' <= c)
//
//	ATOMIC PROCEDURE Broadcast(VAR c: Condition)
//	  MODIFIES AT MOST [c]   ENSURES c' = {}
//
// Signal's postcondition cannot be strengthened to "removes exactly one":
// when several threads race between Enqueue's release of the mutex and the
// Nub's Block, one Signal unblocks all of them (experiment E3). Return from
// Wait is therefore only a hint; callers re-evaluate their predicate and
// Wait again if it does not hold.
//
// Representation, per the paper: a pair (Eventcount, Queue). Wait reads the
// eventcount, releases the mutex, and calls the Nub's Block(c, i); Block
// compares i with the current count under the spin lock and either
// deschedules the caller or — if a Signal or Broadcast intervened — returns
// immediately. Signal and Broadcast increment the eventcount and then move
// one (respectively all) queued threads to the ready pool. The eventcount
// is what lets Broadcast release arbitrarily many racing threads, which a
// semaphore-based implementation cannot do (experiment E5).
type Condition struct {
	nub spinlock.Lock
	ec  eventcount.Count
	// q orders waiters by effective priority, FIFO within a band, so
	// Signal wakes the most urgent waiter first; with no nonzero
	// priorities in the process the order is exactly FIFO.
	q queue.PriorityQueue[*waiter]
	// committed counts the threads in the specification's c: those on q,
	// plus those between Enqueue and Block's test of the eventcount. The
	// user code for Signal and Broadcast avoids calling the Nub when it is
	// zero. A waiter increments it before reading the eventcount, so any
	// Signal issued after a thread commits to waiting either sees the
	// commitment or advances the eventcount that the thread's Block will
	// re-check — no wakeup is lost in the window (the "wakeup-waiting
	// race", experiment E4). Whoever takes the waiter out of c decrements
	// it, exactly once: Signal and Broadcast for each node they pop, under
	// the Nub lock; the waiter itself when it never queued (an elided
	// Block, a pending alert) or when its alerted Remove finds it still
	// queued. A woken thread on its way back to the mutex is not in c, so
	// it no longer sends later Signals into the Nub.
	committed atomic.Int32
	traceID   atomic.Uint64 // conformance-trace identity, assigned lazily
}

// enqueueTraced is the traced prologue shared by Wait and AlertWait: it
// reads the eventcount and draws the Enqueue stamp in one Nub critical
// section (so the stamp orders against every Signal/Broadcast advance),
// emits the Enqueue event, and releases the mutex with the stamp embedded
// in its word — Enqueue's ENSURES covers m' = NIL, so no separate Release
// event is emitted, and the embedded stamp keeps the mutex word's
// never-repeating regime (a plain 0 would reopen the ABA window the
// stamping scheme closes; see trace.go).
func (c *Condition) enqueueTraced(m *Mutex, t *Thread) (i, mObj, cObj uint64) {
	mObj = traceObjID(&m.g.traceID)
	cObj = traceObjID(&c.traceID)
	c.nub.Lock()
	i = c.ec.Read()
	seq := nextTraceSeq()
	c.nub.Unlock()
	traceEmit(seq, TraceEnqueue, t.id, mObj, cObj, false)
	m.leaving(instr.Load(), t, "Wait")
	m.g.releaseEmbed(&mutexGateStats, seq)
	return i, mObj, cObj
}

// Wait atomically ends the caller's critical section on m and suspends the
// calling thread on c (the Enqueue action); once the thread has been
// removed from c by Signal or Broadcast and the mutex is free, it
// re-enters a new critical section (the Resume action) and Wait returns.
//
// REQUIRES m = SELF; checked mode tests it before the caller joins c, so a
// violation panics with c untouched. Return is a hint: the associated
// predicate must be re-evaluated, and Wait called again if it does not
// hold.
func (c *Condition) Wait(m *Mutex) {
	statInc(statWaitCount)
	mode := instr.Load()
	if mode&instrCheck != 0 {
		m.requireHolder(Self(), "Wait")
	}
	c.committed.Add(1)
	if mode&instrTrace != 0 {
		t := Self()
		i, _, cObj := c.enqueueTraced(m, t)
		c.block(i, nil)
		// The Resume action (WHEN m = NIL & NOT SELF IN c, ENSURES
		// m' = SELF) is stamped at the reacquiring CAS.
		m.acquireResume(t, traceCtx{kind: TraceResume, tid: t.id, obj2: cObj})
		return
	}
	i := c.ec.Read()
	m.Release() //threadsvet:ignore lockpair: Wait itself: the specification releases the caller-held mutex, blocks, reacquires (paper, Wait(m, c))
	c.block(i, nil)
	m.Acquire() //threadsvet:ignore lockpair: Wait itself: reacquire on resumption; the caller holds m across Wait
}

// block is the Nub's Block(c, i) subroutine plus the descheduling: under
// the spin lock it compares i with the current eventcount; if unequal (an
// intervening Signal or Broadcast) it returns at once, otherwise the
// calling thread is added to c's queue and descheduled. On the paths that
// return without queueing, and on an alerted wait that still finds itself
// queued, block ends the caller's commitment; otherwise the Signal or
// Broadcast that popped the caller has ended it.
//
// For alertable waits, t carries the thread so Alert can claim the wait;
// block returns the wake reason: reasonWake for signal/broadcast or elided
// waits, reasonAlert when Alert won. Plain waits pass nil and always get
// reasonWake.
func (c *Condition) block(i uint64, t *Thread) uint64 {
	w := getWaiter(t)
	w.capturePri(t)
	if t != nil {
		t.setAlertWaiter(w)
		// A pending alert satisfies the RAISES WHEN clause already;
		// claim it and skip the queue entirely.
		if t.alerted.Load() && w.claim(reasonAlert) {
			t.clearAlertWaiter()
			c.committed.Add(-1)
			w.endEpisode()
			return reasonAlert
		}
	}
	c.nub.Lock()
	if c.ec.AdvancedSince(i) {
		c.committed.Add(-1)
		c.nub.Unlock()
		statInc(statWaitElided)
		if t != nil {
			t.clearAlertWaiter()
			if w.reason() == reasonAlert {
				// Alert claimed us in the window; both outcomes are
				// specification-conformant, and honoring the alert
				// keeps delivery prompt. Alert owes a wake token;
				// consume it before the waiter can be reused.
				w.drain()
				w.endEpisode()
				return reasonAlert
			}
		}
		w.endEpisode()
		return reasonWake
	}
	c.q.Push(&w.item)
	c.nub.Unlock()
	statInc(statWaitPark)
	reason := w.park()
	if t != nil {
		t.clearAlertWaiter()
	}
	if reason == reasonAlert {
		// Remove ourselves from c — the corrected AlertWait semantics:
		// c' = delete(c, SELF) on the Alerted path, so a later Signal
		// is never absorbed by this departed thread. A racing Signal
		// may have popped us already; Remove is then a no-op, and that
		// Signal has ended our commitment and re-popped another waiter.
		c.nub.Lock()
		if c.q.Remove(&w.item) {
			c.committed.Add(-1)
		}
		c.nub.Unlock()
	}
	w.endEpisode()
	return reason
}

// Signal unblocks at least one thread waiting on c, if any thread is; it
// may unblock more (every thread racing in the Enqueue→Block window plus
// one queued thread). Using Signal rather than Broadcast is an efficiency
// hint, permissible only when all waiters wait for the same predicate.
func (c *Condition) Signal() {
	if c.committed.Load() == 0 {
		// User-code optimization: no thread is committed to waiting, so
		// no Nub call. (Any thread that commits later will re-check the
		// predicate before blocking — under the mutex its change is
		// visible — so nothing is lost.) No trace event either: this path
		// neither advances the eventcount nor touches the queue, so it can
		// unblock nothing, and Signal with c' = c is always admitted.
		statInc(statSignalFast)
		return
	}
	statInc(statSignalNub)
	tc := traceCtxFor(instr.Load(), TraceSignal, nil)
	c.nub.Lock()
	c.ec.Advance()
	if tc.kind != TraceNone {
		// Stamped inside the same critical section as the advance, so the
		// Signal orders correctly against every Enqueue stamp (drawn under
		// this lock at the eventcount read) and every other advance.
		traceEmit(nextTraceSeq(), tc.kind, tc.tid, traceObjID(&c.traceID), 0, false)
	}
	for {
		n := c.q.Pop()
		if n == nil {
			break
		}
		// The popped waiter has left c, whether it is woken or already
		// claimed by Alert: its commitment ends here.
		c.committed.Add(-1)
		w := n.Value
		// Claim under the Nub lock: a popped waiter's episode cannot end
		// (its alerted path must reacquire this lock to leave c) before
		// the claim resolves, so the claim addresses the right episode.
		if w.claim(reasonWake) {
			c.nub.Unlock()
			w.wake()
			statInc(statSignalWoke)
			return
		}
		// This waiter was already claimed by Alert; its wakeup belongs
		// to another thread.
		statInc(statSignalRepop)
	}
	c.nub.Unlock()
}

// Broadcast unblocks all threads waiting on c. Broadcast is necessary (for
// correctness) when multiple waiting threads may have different predicates
// or may all proceed; any implementation satisfying Broadcast's
// specification also satisfies Signal's.
func (c *Condition) Broadcast() {
	if c.committed.Load() == 0 {
		statInc(statBcastFast)
		return
	}
	statInc(statBcastNub)
	tc := traceCtxFor(instr.Load(), TraceBroadcast, nil)
	var woke uint64
	c.nub.Lock()
	c.ec.Advance()
	if tc.kind != TraceNone {
		traceEmit(nextTraceSeq(), tc.kind, tc.tid, traceObjID(&c.traceID), 0, false)
	}
	// Claim and wake under the Nub lock: wake never blocks (the parking
	// place is buffered), claims stay within the popped episodes, and the
	// drain allocates nothing — where the old PopAll built a slice per
	// Broadcast. Every drained waiter leaves c, so every commitment on
	// the queue ends here.
	if n := c.q.Len(); n != 0 {
		c.committed.Add(int32(-n))
	}
	//threadsvet:ignore nubdiscipline: the drain closure is inlined into Broadcast (go build -gcflags=-m: no heap allocation, no indirect call survives)
	c.q.Drain(func(n *queue.PItem[*waiter]) {
		w := n.Value
		if w.claim(reasonWake) {
			w.wake()
			woke++
		}
	})
	c.nub.Unlock()
	statAdd(statBcastWoke, woke)
}

// AlertWait is Wait, except that it may return Alerted rather than nil.
// The choice between AlertWait and Wait depends on whether the calling
// thread is to respond to an Alert at this point.
//
// Specification (the corrected version — see experiment E7):
//
//	PROCEDURE AlertWait(VAR m: Mutex; VAR c: Condition) RAISES {Alerted} =
//	  COMPOSITION OF Enqueue; AlertResume END
//	  REQUIRES m = SELF
//	  MODIFIES AT MOST [m, c, alerts]
//	  ATOMIC ACTION Enqueue
//	    ENSURES (c' = insert(c, SELF)) & (m' = NIL) & UNCHANGED [alerts]
//	  ATOMIC ACTION AlertResume
//	    RETURNS WHEN (m = NIL) & NOT (SELF IN c)
//	      ENSURES (m' = SELF) & UNCHANGED [c, alerts]
//	    RAISES Alerted WHEN (m = NIL) & (SELF IN alerts)
//	      ENSURES (m' = SELF) & (c' = delete(c, SELF)) &
//	              (alerts' = delete(alerts, SELF))
//
// On the Alerted path the thread is deleted from c (the original
// specification's UNCHANGED [c] here was the error found after a year of
// use) and the mutex is reacquired before the exception is reported, so the
// caller is in a critical section either way. The RETURNS and RAISES WHEN
// clauses overlap; when a Signal and an Alert race, either outcome may be
// observed (experiment E8).
func (c *Condition) AlertWait(m *Mutex) error { return c.alertWait(m, Self()) }

// alertWait is AlertWait with SELF already recovered, so AlertWaitDeadline
// pays the identity lookup once per operation rather than once per layer.
func (c *Condition) alertWait(m *Mutex, t *Thread) error {
	statInc(statWaitCount)
	mode := instr.Load()
	if mode&instrCheck != 0 {
		m.requireHolder(t, "AlertWait")
	}
	c.committed.Add(1)
	if mode&instrTrace != 0 {
		i, mObj, cObj := c.enqueueTraced(m, t)
		if c.block(i, t) == reasonAlert {
			// AlertResume's RAISES case is stamped in the alerts domain
			// (under t's alertLock, where the alerts-set deletion is
			// serialized), not at the mutex CAS, so the reacquisition
			// itself is silent. That is safe: between this thread's
			// winning CAS and the Raise stamp no other thread can emit a
			// mutex event — Acquire/Resume CASes fail while the mutex is
			// held, and only the holder may Release — so the Raise still
			// lands between the previous holder's event and this thread's
			// next one in stamp order.
			m.acquireResume(t, traceCtx{})
			t.consumeAlertEmit(TraceAlertResumeRaise, mObj, cObj)
			statInc(statAlertedWait)
			return Alerted
		}
		m.acquireResume(t, traceCtx{kind: TraceAlertResumeReturn, tid: t.id, obj2: cObj})
		return nil
	}
	i := c.ec.Read()
	m.Release() //threadsvet:ignore lockpair: AlertWait itself: releases the caller-held mutex before blocking (paper, AlertWait(m, c))
	reason := c.block(i, t)
	m.Acquire() //threadsvet:ignore lockpair: AlertWait itself: reacquire on resumption; the caller holds m across AlertWait
	if reason == reasonAlert {
		t.alerted.Store(false)
		statInc(statAlertedWait)
		return Alerted
	}
	return nil
}

// Waiters returns the number of threads currently enqueued on c (advisory;
// threads racing in the Enqueue→Block window are not counted).
func (c *Condition) Waiters() int {
	c.nub.Lock()
	n := c.q.Len()
	c.nub.Unlock()
	return n
}
