package simthreads

import "threads/internal/sim"

// gate is the shared (lock bit, queue) mechanism behind the simulated Mutex
// and Semaphore, as in the paper: "The implementation of semaphores is the
// same as mutexes: P is the same as Acquire and V is the same as Release."
type gate struct {
	w *World
	// lockBit is 1 iff held/unavailable; it is the word the user-code
	// test-and-set operates on.
	lockBit sim.Word
	// qne is the queue-non-empty hint the user code of Release tests; it
	// is maintained under the Nub spin lock.
	qne sim.Word
	q   tqueue
	// pi enables priority inheritance on this gate (set at construction;
	// mutexes only).
	pi bool
	// holder is the donation target while pi: the thread currently holding
	// the gate. A plain Go field, not a sim.Word — it adds no yield points,
	// and it is a heuristic hint with the same misses internal/core's
	// piHolder has (cleared before the lock-bit store on a plain release,
	// so a donor arriving mid-release skips its donation).
	holder *sim.T
}

// reset returns g to the state of a new gate of w: available, with no
// queued thread and no holder. The words keep their storage; registering
// them clears the rest (see sim.Word.Poke).
func (g *gate) reset(w *World, pi bool) {
	g.w, g.pi, g.holder = w, pi, nil
	g.lockBit.Poke(0)
	g.qne.Poke(0)
	g.q.items = g.q.items[:0]
}

// tryAcquire is the user-code fast path: one test-and-set and one branch —
// 2 instructions. onAcquired runs at the linearization point (immediately
// after the winning test-and-set, in the same execution slice).
func (g *gate) tryAcquire(e *sim.Env, onAcquired lin) bool {
	won := e.TAS(&g.lockBit) == 0
	if won {
		if g.pi {
			g.holder = e.Self()
		}
		onAcquired.run(g.w)
	}
	e.Work(branchCost)
	return won
}

// acquireSlow is the Nub subroutine for Acquire/P (SRC Report 20,
// §Implementation): under the spin lock, add the caller to the queue and
// test the lock bit again. If still set, deschedule; if clear, back out and
// retry the whole operation from the test-and-set.
func (g *gate) acquireSlow(e *sim.Env, reason string, onAcquired lin) {
	w := g.w
	self := e.Self()
	st := w.state(self)
	e.Work(callCost)
	for {
		w.nubLock(e)
		g.q.push(e, self)
		e.Store(&g.qne, 1)
		if e.Load(&g.lockBit) == 0 {
			// A Release slipped in before we enqueued: back out and
			// retry from the test-and-set. We still hold the spin lock,
			// so the releaser cannot have dequeued us.
			g.q.remove(e, self)
			if g.q.empty() {
				e.Store(&g.qne, 0)
			}
			w.nubUnlock(e)
		} else {
			// Stash the acquisition action so a direct hand-off can emit it
			// in the releaser's slice; must precede the unlock, since a
			// releaser may pop us the instant the spin lock drops.
			st.handoffEmit = onAcquired
			// Donate before parking, while the holder is still visible
			// under the spin lock.
			w.piDonate(e, g, self)
			w.nubUnlock(e)
			w.Stats.AcquirePark++
			e.Deschedule(reason)
			// The releaser dequeued us before the wakeup; consume the
			// claim and retry.
			woke := st.wakeup
			st.wakeup = wakeNone
			st.handoffEmit = lin{}
			if woke == wakeHandoff {
				// The releaser transferred the gate: the lock bit was never
				// cleared and our acquisition is already emitted. Nothing
				// left to retry.
				return
			}
		}
		if g.tryAcquire(e, onAcquired) {
			return
		}
	}
}

// alertableAcquireSlow is acquireSlow for AlertP: the wait can also be
// ended by Alert, in which case the caller reports the alert and the gate
// is left untouched. onAcquired/onAlerted run at the respective
// linearization points.
func (g *gate) alertableAcquireSlow(e *sim.Env, reason string, onAcquired, onAlerted lin) (alerted bool) {
	w := g.w
	self := e.Self()
	st := w.state(self)
	e.Work(callCost)
	for {
		w.nubLock(e)
		if st.alerted {
			// WHEN SELF IN alerts already holds: take the RAISES path.
			st.alerted = false
			onAlerted.run(w)
			w.nubUnlock(e)
			return true
		}
		g.q.push(e, self)
		e.Store(&g.qne, 1)
		st.alertTgt = &g.q
		if e.Load(&g.lockBit) == 0 {
			g.q.remove(e, self)
			if g.q.empty() {
				e.Store(&g.qne, 0)
			}
			st.alertTgt = nil
			w.nubUnlock(e)
			if g.tryAcquire(e, onAcquired) {
				return false
			}
			continue
		}
		st.handoffEmit = onAcquired
		w.piDonate(e, g, self)
		w.nubUnlock(e)
		e.Deschedule(reason)
		// Woken: find out by whom, under the spin lock.
		w.nubLock(e)
		woke := st.wakeup
		st.wakeup = wakeNone
		st.alertTgt = nil
		st.handoffEmit = lin{}
		if woke == wakeHandoff {
			w.nubUnlock(e)
			return false
		}
		if woke == wakeAlert {
			// Leave the queue before reporting the alert, so a later V
			// is not absorbed by this departed thread.
			g.q.remove(e, self)
			if g.q.empty() {
				e.Store(&g.qne, 0)
			}
			st.alerted = false
			onAlerted.run(w)
			w.nubUnlock(e)
			return true
		}
		w.nubUnlock(e)
		if g.tryAcquire(e, onAcquired) {
			return false
		}
	}
}

// release is the user code for Release/V: clear the lock bit (1
// instruction), test whether the queue is non-empty (1), branch (1) — and
// only then call the Nub. onReleased runs at the clearing store.
func (g *gate) release(e *sim.Env, onReleased lin) (tookNub bool) {
	if g.w.opts.DirectHandoff && e.Load(&g.qne) != 0 && g.releaseHandoffSlow(e, onReleased) {
		return true
	}
	// The next holder is unknown until someone wins the test-and-set, so a
	// plain release clears the donation target first. Its own donation is
	// removed only AFTER the queued successor (if any) is in the ready pool:
	// dropping the boost first would let a medium-priority thread preempt
	// this thread inside releaseSlow's Nub critical section — with the
	// successor still stranded on the gate queue — recreating the very
	// inversion the donation existed to prevent.
	var prevHolder *sim.T
	if g.pi {
		prevHolder = g.holder
		g.holder = nil
	}
	e.Store(&g.lockBit, 0)
	onReleased.run(g.w)
	nonEmpty := e.Load(&g.qne) != 0
	e.Work(branchCost)
	if !nonEmpty {
		g.w.piUndonate(e, g, prevHolder)
		return false
	}
	g.releaseSlow(e)
	g.w.piUndonate(e, g, prevHolder)
	return true
}

// releaseSlow is the Nub subroutine for Release/V: take one thread from the
// queue, claim it, and move it to the ready pool.
func (g *gate) releaseSlow(e *sim.Env) {
	w := g.w
	e.Work(callCost)
	w.nubLock(e)
	for {
		t := g.q.pop(e)
		if t == nil {
			e.Store(&g.qne, 0)
			break
		}
		if g.q.empty() {
			e.Store(&g.qne, 0)
		}
		st := w.state(t)
		if st.wakeup == wakeNone {
			st.wakeup = wakeTransfer
			e.MakeReady(t)
			break
		}
		// Already claimed by Alert: it no longer needs this wakeup; give
		// it to the next thread.
	}
	w.nubUnlock(e)
}

// releaseHandoffSlow is the direct hand-off variant of releaseSlow: instead
// of clearing the lock bit and letting the woken thread race barging
// acquirers, transfer the gate to a queued waiter with the bit still set.
// Both linearization points — the release and the recipient's acquisition —
// are emitted here, back to back in the releaser's slice, because the
// transfer makes them adjacent in the abstract state: no concurrently
// scheduled operation on this gate can fall between them. Returns false
// (emitting nothing) if no eligible waiter exists or the bit is already
// clear (a semaphore V with no token in hand cannot gift one); the caller
// then runs the ordinary clear-and-wake protocol.
func (g *gate) releaseHandoffSlow(e *sim.Env, onReleased lin) bool {
	w := g.w
	e.Work(callCost)
	w.nubLock(e)
	if e.Load(&g.lockBit) == 0 {
		w.nubUnlock(e)
		return false
	}
	for {
		t := g.q.pop(e)
		if t == nil {
			e.Store(&g.qne, 0)
			w.nubUnlock(e)
			return false
		}
		if g.q.empty() {
			e.Store(&g.qne, 0)
		}
		st := w.state(t)
		if st.wakeup == wakeNone {
			onReleased.run(w)
			st.handoffEmit.run(w)
			st.handoffEmit = lin{}
			var old *sim.T
			if g.pi {
				// A transfer names its recipient: install it as the new
				// donation target. The releaser's own boost is dropped only
				// after the recipient is ready (see release).
				old = g.holder
				g.holder = t
			}
			st.wakeup = wakeHandoff
			e.MakeReady(t)
			if g.pi {
				w.piUndonate(e, g, old)
			}
			w.nubUnlock(e)
			w.Stats.ReleaseHandoff++
			return true
		}
		// Already claimed by Alert; it no longer wants the gate.
	}
}
