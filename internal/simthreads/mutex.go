package simthreads

import (
	"strconv"

	"threads/internal/sim"
	"threads/internal/spec"
)

// Mutex is the simulated Threads mutex: a (lock bit, queue) pair with no
// recorded holder.
type Mutex struct {
	w  *World
	id spec.MutexID
	g  gate
	// acquireReason and resumeReason name the mutex's slow-path blocks in
	// deadlock reports.
	acquireReason, resumeReason string
	// acts keeps the boxed Acquire and Release each thread emits on m, by
	// spec thread ID (see at).
	acts [][2]spec.Action
}

// NewMutex creates a mutex (INITIALLY NIL). With the world's
// PriorityInheritance option on, the mutex donates blocked acquirers'
// priorities to its holder.
func (w *World) NewMutex() *Mutex {
	w.nextMutex++
	if int(w.nextMutex) > len(w.mutexes) {
		n := strconv.Itoa(int(w.nextMutex))
		w.mutexes = append(w.mutexes, &Mutex{
			w:             w,
			id:            w.nextMutex,
			acquireReason: "Acquire(m" + n + ")",
			resumeReason:  "Resume(m" + n + ")",
		})
	}
	m := w.mutexes[w.nextMutex-1]
	m.g.reset(w, w.opts.PriorityInheritance)
	w.registerGate(&m.g)
	return m
}

// ID returns the spec-level identity used in emitted actions.
func (m *Mutex) ID() spec.MutexID { return m.id }

// Acquire blocks until the mutex is free and takes it. The uncontended
// path is 2 instructions (test-and-set, branch).
func (m *Mutex) Acquire(e *sim.Env) {
	on := lin{op: linAcquire, e: e, st: m.w.state(e.Self()), m: m}
	if m.w.opts.NoUserFastPath {
		m.g.acquireNubOnly(e, m.acquireReason, on)
		return
	}
	if m.g.tryAcquire(e, on) {
		m.w.Stats.AcquireFast++
		return
	}
	m.w.Stats.AcquireNub++
	m.g.acquireSlow(e, m.acquireReason, on)
}

// acquireSilent reacquires the mutex inside Wait/AlertWait; the
// linearization event is the Resume/AlertResume emitted by the caller.
func (m *Mutex) acquireSilent(e *sim.Env, on lin) {
	if m.g.tryAcquire(e, on) {
		m.w.Stats.AcquireFast++
		return
	}
	m.w.Stats.AcquireNub++
	m.g.acquireSlow(e, m.resumeReason, on)
}

// Release frees the mutex and, if threads are queued, moves one to the
// ready pool. The uncontended path is 3 instructions (clear, queue test,
// branch).
func (m *Mutex) Release(e *sim.Env) {
	on := lin{op: linRelease, e: e, st: m.w.state(e.Self()), m: m}
	if m.w.opts.NoUserFastPath {
		m.g.releaseNubOnly(e, on)
		return
	}
	if m.g.release(e, on) {
		m.w.Stats.ReleaseNub++
	} else {
		m.w.Stats.ReleaseFast++
	}
}

// releaseSilent releases inside Wait/AlertWait (the Enqueue event covers
// the m' = NIL transition).
func (m *Mutex) releaseSilent(e *sim.Env) {
	if m.g.release(e, lin{}) {
		m.w.Stats.ReleaseNub++
	} else {
		m.w.Stats.ReleaseFast++
	}
}

// Held reports the lock bit without simulating an access (assertions only).
func (m *Mutex) Held() bool { return m.g.lockBit.Peek() != 0 }

// Semaphore is the simulated binary semaphore — the identical mechanism
// under a different specification.
type Semaphore struct {
	w  *World
	id spec.SemID
	g  gate
	// pReason and alertPReason name the semaphore's slow-path blocks in
	// deadlock reports.
	pReason, alertPReason string
	// acts keeps the boxed P, V, AlertP.Return and AlertP.Raise each
	// thread emits on s, by spec thread ID (see at).
	acts [][4]spec.Action
}

// NewSemaphore creates a semaphore (INITIALLY available).
func (w *World) NewSemaphore() *Semaphore {
	w.nextSem++
	if int(w.nextSem) > len(w.sems) {
		n := strconv.Itoa(int(w.nextSem))
		w.sems = append(w.sems, &Semaphore{
			w:            w,
			id:           w.nextSem,
			pReason:      "P(s" + n + ")",
			alertPReason: "AlertP(s" + n + ")",
		})
	}
	s := w.sems[w.nextSem-1]
	s.g.reset(w, false)
	w.registerGate(&s.g)
	return s
}

// ID returns the spec-level identity used in emitted actions.
func (s *Semaphore) ID() spec.SemID { return s.id }

// P blocks until the semaphore is available and takes it.
func (s *Semaphore) P(e *sim.Env) {
	on := lin{op: linP, e: e, st: s.w.state(e.Self()), s: s}
	if s.w.opts.NoUserFastPath {
		s.g.acquireNubOnly(e, s.pReason, on)
		return
	}
	if s.g.tryAcquire(e, on) {
		return
	}
	s.g.acquireSlow(e, s.pReason, on)
}

// V makes the semaphore available, waking one queued thread if any.
func (s *Semaphore) V(e *sim.Env) {
	on := lin{op: linV, e: e, st: s.w.state(e.Self()), s: s}
	if s.w.opts.NoUserFastPath {
		s.g.releaseNubOnly(e, on)
		return
	}
	s.g.release(e, on)
}

// AlertP is P, except that it may report the caller's pending alert
// instead of acquiring; it returns true if alerted. When both outcomes are
// possible the implementation chooses arbitrarily (experiment E8).
func (s *Semaphore) AlertP(e *sim.Env) (alerted bool) {
	onAcquired := lin{op: linAlertPReturn, e: e, st: s.w.state(e.Self()), s: s}
	onAlerted := onAcquired
	onAlerted.op = linAlertPRaise
	if s.g.tryAcquire(e, onAcquired) {
		// Both WHEN clauses may have been enabled; the fast path chooses
		// RETURNS, as the Firefly implementation did.
		return false
	}
	return s.g.alertableAcquireSlow(e, s.alertPReason, onAcquired, onAlerted)
}

// Available reports the lock bit without simulating an access.
func (s *Semaphore) Available() bool { return s.g.lockBit.Peek() == 0 }
