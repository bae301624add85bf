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
	// Signal wakes (or morphs) the most urgent waiter first; with no
	// nonzero priorities in the process the order is exactly FIFO.
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
	// the Nub lock; the waiter itself when it never queued (an elided or
	// spun-out Block, a pending alert) or when its alerted Remove finds it
	// still queued. A woken thread on its way back to the mutex is not in
	// c, so it no longer sends later Signals into the Nub.
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
	if mode&instrTrace != 0 {
		t := Self()
		c.committed.Add(1)
		i, mObj, cObj := c.enqueueTraced(m, t)
		reason, hseq := c.block(i, nil, &m.g)
		if reason == reasonHandoff && hseq != handoffDemoted {
			// A Release handed this (morphed) waiter the mutex directly;
			// hseq is the stamp its second CAS certified for our
			// resumption, so the Resume event is emitted here and the
			// reacquisition is already done. (A demoted hand-off arrives
			// with hseq handoffDemoted and reacquires below like a plain
			// wake.)
			traceEmit(hseq, TraceResume, t.id, mObj, cObj, false)
			m.entered(instr.Load(), t)
			return
		}
		// The Resume action (WHEN m = NIL & NOT SELF IN c, ENSURES
		// m' = SELF) is stamped at the reacquiring CAS.
		m.acquireResume(t, traceCtx{kind: TraceResume, tid: t.id, obj2: cObj})
		return
	}
	c.committed.Add(1)
	i := c.ec.Read()
	m.Release() //threadsvet:ignore lockpair: Wait itself: the specification releases the caller-held mutex, blocks, reacquires (paper, Wait(m, c))
	reason, _ := c.block(i, nil, &m.g)
	if reason == reasonHandoff {
		// Untraced hand-off: the mutex bit never cleared; we hold it.
		mode = instr.Load()
		m.entered(mode, m.self(mode, true))
		return
	}
	m.Acquire() //threadsvet:ignore lockpair: Wait itself: reacquire on resumption; the caller holds m across Wait
}

// spinBlock is Block's analogue of the gate's adaptive spin: before paying
// for the Nub lock and a park/wake round-trip, briefly poll the eventcount
// for the Signal or Broadcast that short critical sections deliver within
// a few hundred nanoseconds. Returns true if the count advanced — the same
// condition Block checks under the lock — so the wait is elided without
// ever touching the queue. Skipped whenever another thread is committed to
// the Wait protocol (the lock-free count of c, queued or about to be): an
// eventcount advance would resume that thread too, so spinning past it
// cannot starve anyone, but it would make the spinner steal wakeups the
// queued thread was closer to; lone-waiter spinning mirrors sync.Mutex's
// empty-queue policy. Woken threads have left c and do not stop the spin.
func (c *Condition) spinBlock(i uint64) bool {
	if !canSpin() {
		return false
	}
	for r := 0; r < acquireSpinRounds; r++ {
		if c.committed.Load() > 1 { // the caller itself is committed
			return false
		}
		spinlock.Pause(spinPauseIters)
		if c.ec.AdvancedSince(i) {
			return true
		}
	}
	return false
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
// block returns the wake reason (reasonWake for signal/broadcast or elided
// waits, reasonAlert when Alert won, reasonHandoff when a Release handed
// the morphed waiter the mutex directly — hseq is then the certified
// resume stamp, 0 for an untraced hand-off, or handoffDemoted).
//
// For plain waits, mg names the mutex gate Signal may morph this waiter
// onto (wait morphing); alertable waits pass nil — a morphed waiter parks
// on the mutex queue where Alert's claim could not honor the corrected
// c' = delete(c, SELF) semantics without chasing the node across queues.
func (c *Condition) block(i uint64, t *Thread, mg *gate) (reason, hseq uint64) {
	if t == nil && c.spinBlock(i) {
		// The eventcount advanced while spinning: the wait is elided
		// before the waiter is even prepared. Alertable waits skip the
		// spin — they must register for Alert before any waiting, else
		// a pending alert would sit undelivered for the spin's
		// duration.
		c.committed.Add(-1)
		statInc(statWaitSpin)
		return reasonWake, 0
	}
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
			return reasonAlert, 0
		}
	} else if mg != nil && CurrentHandoffMode() != HandoffOff {
		w.morphGate = mg
	}
	w.parkStart = handoffNanos()
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
				return reasonAlert, 0
			}
		}
		w.endEpisode()
		return reasonWake, 0
	}
	c.q.Push(&w.item)
	c.nub.Unlock()
	statInc(statWaitPark)
	reason = w.park()
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
	hseq = w.handoffSeq
	w.endEpisode()
	return reason, hseq
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
		// The popped waiter has left c, whether it is woken, morphed or
		// already claimed by Alert: its commitment ends here.
		c.committed.Add(-1)
		w := n.Value
		if mg := w.morphGate; mg != nil && c.morph(w, mg) {
			return
		}
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

// morph is Signal's wait morphing: instead of waking the popped waiter —
// which would run only to block again on the mutex — move its node
// straight onto the mutex gate's queue and let the eventual Release wake
// it (or hand it the mutex directly). One park/wake round trip per
// signaled waiter disappears, and the thundering re-acquisition herd after
// a burst of Signals with it.
//
// Called with c.nub held, and returns with it released when the morph
// succeeds (true). The nesting c.nub → mg.nub is one of the package's
// spin-lock nestings (the other is a gate's nub → a thread's donLock,
// gate.piDonate) and nothing acquires in the other order; composed, the
// deepest chain is c.nub → mg.nub → donLock, still cycle-free.
//
// The spec face is untouched: like a woken waiter, a morphed one left c at
// the Signal stamped above, which satisfies the thin-air check and has
// ended its commitment; its Resume event is emitted at the reacquiring
// CAS (or with the hand-off's certified stamp) as for any woken waiter.
// Only plain Waits morph (block sets morphGate only when t == nil), so the
// waiter on the mutex queue is unclaimed and cannot be raced by Alert; the
// gate pops it like any Acquire waiter.
func (c *Condition) morph(w *waiter, mg *gate) bool {
	mg.nub.Lock()
	mg.q.Push(&w.item)
	mg.qlen.Add(1)
	if !mg.locked() {
		// The mutex is free: no future Release is obliged to pop the
		// queue, and a parked waiter nobody wakes is a deadlock. Back
		// out and wake it the ordinary way. (If a releaser cleared the
		// bit after our push, its qlen check — a sequentially consistent
		// load after its clearing store — sees our increment and enters
		// releaseNub, so the node is never stranded in the window.)
		mg.q.Remove(&w.item)
		mg.qlen.Add(-1)
		mg.nub.Unlock()
		return false
	}
	// The morphed waiter is now an Acquire waiter in every respect,
	// including priority inheritance: donate its priority to the holder
	// whose Release it awaits.
	mg.piDonate(w)
	mg.nub.Unlock()
	c.nub.Unlock()
	statInc(statSignalMorph)
	return true
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
		reason, _ := c.block(i, t, nil)
		if reason == reasonAlert {
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
	reason, _ := c.block(i, t, nil)
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
