package simthreads

import (
	"fmt"
	"strconv"

	"threads/internal/sim"
	"threads/internal/spec"
)

// Condition is the simulated condition variable: an (eventcount, queue)
// pair, per §Implementation of the paper.
type Condition struct {
	w  *World
	id spec.CondID
	// ec is the eventcount: an atomically-readable, monotonically
	// increasing counter (Reed 77).
	ec sim.Word
	// committed counts the threads in the specification's c: queued, or
	// between Enqueue and Block. The user code of Signal/Broadcast tests
	// it to avoid Nub calls. Whoever takes a waiter out of c decrements
	// it once: Signal and Broadcast per popped thread, the waiter itself
	// when Block elides its wait, a pending alert skips the queue, or its
	// alerted remove finds it still queued.
	committed sim.Word
	q         tqueue
	// waitReason and alertWaitReason name the condition's blocks in
	// deadlock reports.
	waitReason, alertWaitReason string
	// waits keeps the boxed Enqueue, Resume and AlertResume actions each
	// thread emits on c, by spec thread ID and then by mutex (see lin.slot),
	// and wakes its Broadcast (slot 0) and Signals (slot 1+r, r the spec ID
	// of the thread the Signal removes, or NIL). See at.
	waits, wakes [][]spec.Action
}

// NewCondition creates a condition variable (INITIALLY {}).
func (w *World) NewCondition() *Condition {
	w.nextCond++
	if int(w.nextCond) > len(w.conds) {
		n := strconv.Itoa(int(w.nextCond))
		w.conds = append(w.conds, &Condition{
			w:               w,
			id:              w.nextCond,
			waitReason:      "Wait(c" + n + ")",
			alertWaitReason: "AlertWait(c" + n + ")",
		})
	}
	c := w.conds[w.nextCond-1]
	c.ec.Poke(0)
	c.committed.Poke(0)
	c.q.items = c.q.items[:0]
	w.registerCond(c)
	return c
}

// CheckConditions reports the first condition variable a finished run
// leaves with a standing commitment or a queued thread. With every thread
// finished no thread is in any c, so every commitment must have been ended
// exactly once. Call it only after Run returned with every thread
// finished; it reads the words without simulating accesses.
func (w *World) CheckConditions() error {
	for _, c := range w.conds[:w.nextCond] {
		if n, q := c.committed.Peek(), len(c.q.items); n != 0 || q != 0 {
			return fmt.Errorf("condition c%d ends the run with committed = %d and %d queued; every thread has finished", c.id, int64(n), q)
		}
	}
	return nil
}

// ID returns the spec-level identity used in emitted actions.
func (c *Condition) ID() spec.CondID { return c.id }

// Wait atomically leaves m's critical section and suspends the caller on c;
// it returns inside a new critical section on m. The user code follows the
// paper: read the eventcount, Release(m), call the Nub's Block(c, i),
// Acquire(m).
func (c *Condition) Wait(e *sim.Env, m *Mutex) {
	st := c.w.state(e.Self())
	// Committing to the wait is the Enqueue linearization: the counter
	// increment is the last instruction after which a Signal is obliged
	// to consider us waiting.
	e.Add(&c.committed, 1)
	on := lin{op: linEnqueue, e: e, st: st, m: m, c: c}
	on.run(c.w)
	i := e.Load(&c.ec)
	m.releaseSilent(e)
	c.block(e, i, c.waitReason)
	on.op = linResume
	m.acquireSilent(e, on)
}

// block is the Nub's Block(c, i): under the spin lock, compare i with the
// eventcount; if they differ a Signal or Broadcast intervened and Block
// ends the caller's commitment and returns, otherwise the thread is queued
// and descheduled (the Signal or Broadcast that pops it ends it).
func (c *Condition) block(e *sim.Env, i uint64, reason string) {
	w := c.w
	self := e.Self()
	st := w.state(self)
	e.Work(callCost)
	w.nubLock(e)
	if e.Load(&c.ec) != i {
		e.Add(&c.committed, ^uint64(0)) // -1
		w.nubUnlock(e)
		w.Stats.WaitElided++
		return
	}
	c.q.push(e, self)
	w.nubUnlock(e)
	w.Stats.WaitPark++
	e.Deschedule(reason)
	st.wakeup = wakeNone
}

// blockAlertable is block for AlertWait; it reports whether the wait ended
// with an alert.
func (c *Condition) blockAlertable(e *sim.Env, i uint64, reason string) (alerted bool) {
	w := c.w
	self := e.Self()
	st := w.state(self)
	e.Work(callCost)
	w.nubLock(e)
	if st.alerted {
		// Pending alert: the RAISES WHEN clause already holds; skip the
		// queue entirely. (The alert flag is consumed at the
		// AlertResume linearization, in the caller.)
		e.Add(&c.committed, ^uint64(0))
		w.nubUnlock(e)
		return true
	}
	if e.Load(&c.ec) != i {
		e.Add(&c.committed, ^uint64(0))
		w.nubUnlock(e)
		w.Stats.WaitElided++
		return false
	}
	c.q.push(e, self)
	st.alertTgt = &c.q
	w.nubUnlock(e)
	w.Stats.WaitPark++
	e.Deschedule(reason)
	w.nubLock(e)
	woke := st.wakeup
	st.wakeup = wakeNone
	st.alertTgt = nil
	if woke == wakeAlert {
		// The corrected AlertWait semantics: leave c before raising, so
		// a later Signal is not absorbed by this departed thread. If a
		// Signal or Broadcast popped it first, that popper ended the
		// commitment.
		if c.q.remove(e, self) {
			e.Add(&c.committed, ^uint64(0))
		}
	}
	w.nubUnlock(e)
	return woke == wakeAlert
}

// Signal makes one waiting thread ready, if any thread is committed to
// waiting; threads racing between the eventcount read and Block are
// released as well (they observe the advanced count), which is why Signal
// may unblock more than one thread (experiment E3).
func (c *Condition) Signal(e *sim.Env) {
	w := c.w
	// User code: no Nub call when no thread is committed to waiting.
	if !w.opts.NoSignalFastPath {
		if e.Load(&c.committed) == 0 {
			e.Work(branchCost)
			w.Stats.SignalFast++
			return
		}
		e.Work(branchCost)
	}
	w.Stats.SignalNub++
	e.Work(callCost)
	w.nubLock(e)
	e.Add(&c.ec, 1)
	self := w.state(e.Self()).id
	var woken *sim.T
	for {
		t := c.q.pop(e)
		if t == nil {
			break
		}
		e.Add(&c.committed, ^uint64(0)) // t has left c, woken or Alert-claimed
		st := w.state(t)
		if st.wakeup == wakeNone {
			st.wakeup = wakeTransfer
			woken = t
			break
		}
		// Claimed by Alert; its wakeup belongs to the next thread.
	}
	if w.traced {
		var r spec.ThreadID // the thread the Signal removes, or NIL
		if woken != nil {
			r = w.state(woken).id
		}
		p := at(at(&c.wakes, int(self)), 1+int(r))
		if *p == nil {
			a := spec.Signal{T: self, C: c.id}
			if r != spec.NIL {
				a.Removed = []spec.ThreadID{r}
			}
			*p = a
		}
		e.Emit(*p)
	}
	if woken != nil {
		e.MakeReady(woken)
		w.Stats.SignalWoke++
	}
	w.nubUnlock(e)
}

// Broadcast makes all waiting threads ready.
func (c *Condition) Broadcast(e *sim.Env) {
	w := c.w
	if !w.opts.NoSignalFastPath {
		if e.Load(&c.committed) == 0 {
			e.Work(branchCost)
			w.Stats.BcastFast++
			return
		}
		e.Work(branchCost)
	}
	w.Stats.BcastNub++
	e.Work(callCost)
	w.nubLock(e)
	e.Add(&c.ec, 1)
	self := w.state(e.Self()).id
	left := uint64(len(c.q.items)) // every queued thread leaves c
	woken := w.woken[:0]
	for {
		t := c.q.pop(e)
		if t == nil {
			break
		}
		st := w.state(t)
		if st.wakeup == wakeNone {
			st.wakeup = wakeTransfer
			woken = append(woken, t)
		}
	}
	if left != 0 {
		e.Add(&c.committed, -left)
	}
	if w.traced {
		p := at(at(&c.wakes, int(self)), 0)
		if *p == nil {
			*p = spec.Broadcast{T: self, C: c.id}
		}
		e.Emit(*p)
	}
	for _, t := range woken {
		e.MakeReady(t)
		w.Stats.BcastWoke++
	}
	w.woken = woken
	w.nubUnlock(e)
}

// AlertWait is Wait, except it reports true (Alerted) if the wait was ended
// by Alert; in that case the thread was removed from c, the alert was
// consumed, and the mutex was still reacquired before returning.
func (c *Condition) AlertWait(e *sim.Env, m *Mutex) (alerted bool) {
	e.Add(&c.committed, 1)
	on := lin{op: linEnqueue, e: e, st: c.w.state(e.Self()), m: m, c: c}
	on.run(c.w)
	i := e.Load(&c.ec)
	m.releaseSilent(e)
	alerted = c.blockAlertable(e, i, c.alertWaitReason)
	if alerted && c.w.opts.BuggyAlertSeize {
		// The first released specification's Raise path (VariantNoMNil):
		// no "m = NIL &" guard, so the alerted thread returns — believing
		// it holds m — without waiting for the holder. It barges into the
		// guarded region, and its later Release clears a lock bit it
		// never owned.
		on.op = linSeize
		on.run(c.w)
		e.Work(branchCost)
		return true
	}
	on.op = linAlertResumeReturn
	if alerted {
		on.op = linAlertResumeRaise
	}
	m.acquireSilent(e, on)
	return alerted
}

// Waiters reports the queue length without simulating accesses (assertions
// and reporting only).
func (c *Condition) Waiters() int { return len(c.q.items) }
