package core

import "sync/atomic"

// Mutex is the basic tool enabling threads to cooperate on access to shared
// variables. In the specification a Mutex is a Thread-valued variable,
// INITIALLY NIL; the zero value of this type is that initial state.
//
// Specification (SRC Report 20):
//
//	ATOMIC PROCEDURE Acquire(VAR m: Mutex)
//	  MODIFIES AT MOST [m]   WHEN m = NIL   ENSURES m' = SELF
//
//	ATOMIC PROCEDURE Release(VAR m: Mutex)
//	  REQUIRES m = SELF   MODIFIES AT MOST [m]   ENSURES m' = NIL
//
// The representation records no holder (lock bit + queue only); the
// REQUIRES clause of Release is the caller's obligation. SetChecking
// enables a debugging mode that records holders and panics on violations.
type Mutex struct {
	g gate
	// holder is maintained only in checking mode. 0 means NIL.
	holder atomic.Uint64
}

// SetChecking enables or disables holder tracking on all mutexes and
// returns the previous setting. With checking on, Release panics if the
// calling thread does not hold the mutex, and Acquire panics on attempted
// recursive acquisition, which would otherwise deadlock silently — the
// check the paper's users wished their debugger could do.
func SetChecking(on bool) bool { return setInstr(instrCheck, on) }

// Acquire blocks until the mutex is NIL and then makes the calling thread
// its holder. The WHEN clause (m = NIL) may impose a delay until another
// thread's Release makes it true; if several threads are blocked in
// Acquire, exactly one of them proceeds per Release, because the winner's
// ENSURES falsifies the others' WHEN clauses.
func (m *Mutex) Acquire() {
	if !m.g.lockFast() {
		m.acquireSlow()
	}
}

// acquireSlow holds what the paper's user code leaves out: the recursion
// check, the trace context and the holder bookkeeping.
func (m *Mutex) acquireSlow() {
	mode := instr.Load()
	t := m.self(mode)
	if mode&instrCheck != 0 && m.holder.Load() == t.id {
		panic("threads: recursive Acquire would deadlock: " + t.Name() + " already holds the mutex")
	}
	m.g.acquire(t, &mutexGateStats, traceCtxFor(mode, TraceAcquire, t))
	m.entered(mode, t)
}

// TryAcquire acquires the mutex if it is NIL and reports whether it did.
// (An extension: the Firefly interface had no TryAcquire, but the fast path
// makes it free and tests and examples use it.)
func (m *Mutex) TryAcquire() bool {
	return m.g.lockFast() || m.tryAcquireSlow()
}

func (m *Mutex) tryAcquireSlow() bool {
	mode := instr.Load()
	t := m.self(mode)
	if !m.g.tryAcquire(traceCtxFor(mode, TraceAcquire, t)) {
		return false
	}
	m.entered(mode, t)
	statInc(statAcquireFast)
	return true
}

// Release makes the mutex NIL and, if threads are blocked in Acquire, makes
// one of them ready. The caller must hold the mutex (REQUIRES m = SELF);
// with checking disabled a violation is not detected, matching the paper's
// implementation, which keeps no holder.
func (m *Mutex) Release() {
	if !m.g.unlockFast() {
		m.releaseSlow()
	} else if m.g.qlen.Load() != 0 {
		m.g.releaseNub(&mutexGateStats)
	}
}

func (m *Mutex) releaseSlow() {
	mode := instr.Load()
	t := m.self(mode)
	m.leaving(mode, t, "Release")
	m.g.release(&mutexGateStats, traceCtxFor(mode, TraceRelease, t))
}

// SetPriorityInheritance enables or disables priority inheritance on this
// mutex and returns the previous setting. With PI on, a blocked Acquire
// donates its thread's effective priority to the holder for the duration
// of the hold (gate.piDonate); the donation is removed at Release and the
// boost/restore transitions carry conformance stamps. The setting is a bit
// of the mutex's own lock word: a PI mutex's Acquire and Release take
// their slow paths and track the holder, which costs a SELF recovery per
// acquisition, while other Mutexes and Semaphores keep their fast paths.
// Flip only while the mutex is free: on a held mutex it panics, since the
// holder may already carry donations that only a PI Release removes.
func (m *Mutex) SetPriorityInheritance(on bool) bool {
	w := m.g.word.Load()
	next := w &^ gatePIBit
	if on {
		next |= gatePIBit
	}
	if w&gateLockedBit != 0 || !m.g.word.CompareAndSwap(w, next) {
		panic("threads: SetPriorityInheritance on a held mutex; flip it only while the mutex is free")
	}
	return w&gatePIBit != 0
}

// self returns the calling thread in checking mode, which tracks the
// holder, else nil: no needless SELF recovery.
func (m *Mutex) self(mode uint32) *Thread {
	if mode&instrCheck != 0 {
		return Self()
	}
	return nil
}

// entered is every acquisition path's holder bookkeeping, t from self. A
// PI mutex's holder is recorded here, after the test-and-set, so that no
// acquisition reads the contended gate word before its CAS takes it.
func (m *Mutex) entered(mode uint32, t *Thread) {
	if mode&instrCheck != 0 {
		m.holder.Store(t.id)
	}
	if m.g.pi() {
		if t == nil {
			t = Self()
		}
		m.g.piSetHolder(t)
	}
}

// leaving is every release path's holder bookkeeping, t from self, run
// before the lock word transitions. The PI clear is serialized under the
// nub lock: a donor ordered after it sees no holder, so no boost outlives
// the hold.
func (m *Mutex) leaving(mode uint32, t *Thread, op string) {
	if mode&instrCheck != 0 {
		m.requireHolder(t, op)
		m.holder.Store(0)
	}
	if m.g.pi() {
		if h := m.g.piClearHolder(); h != nil {
			h.undonate(&m.g)
		}
	}
}

// requireHolder is checked mode's test of REQUIRES m = SELF. Wait and
// AlertWait run it before they commit to the condition or emit anything,
// so a misuse panics with the condition untouched.
func (m *Mutex) requireHolder(t *Thread, op string) {
	if m.holder.Load() != t.id {
		panic("threads: " + op + " REQUIRES m = SELF violated by " + t.Name())
	}
}

// acquireResume is Wait's mutex reacquisition: like Acquire, but the trace
// event (Resume or AlertResume.Return, carrying the condition in obj2) is
// supplied by the caller. A zero tc reacquires silently.
func (m *Mutex) acquireResume(t *Thread, tc traceCtx) {
	m.g.acquire(t, &mutexGateStats, tc)
	m.entered(instr.Load(), t)
}

// Held reports whether some thread holds the mutex. Advisory: the answer
// may be stale immediately.
func (m *Mutex) Held() bool { return m.g.locked() }

// Waiters returns the number of threads blocked in Acquire (advisory).
func (m *Mutex) Waiters() int { return m.g.waiters() }

// Lock brackets body with Acquire and Release, the Modula-2+
//
//	LOCK m DO statement-sequence END
//
// construct: Release runs even if body panics (the TRY ... FINALLY of the
// expansion), and the bracketing is syntactically enforced.
func Lock(m *Mutex, body func()) {
	m.Acquire()
	defer m.Release()
	body()
}
