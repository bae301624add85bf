package core

import (
	"sync/atomic"

	"threads/internal/queue"
	"threads/internal/spinlock"
)

// gate is the shared mechanism behind Mutex and Semaphore. The paper is
// explicit that "the implementation of semaphores is identical to mutexes:
// P is the same as Acquire and V is the same as Release"; the two public
// types differ only in specification (Release has a REQUIRES clause, V does
// not, and only semaphores have AlertP).
//
// Representation, per the paper: a pair (lock bit, queue). Bit 0 of word is
// 1 iff a thread is inside (mutex held / semaphore unavailable); bit 1 is
// set on a mutex with priority inheritance, and every transition carries it
// through; with conformance tracing enabled, bits 2..63 carry the stamp of
// the transition that produced the current value (see trace.go for the full
// argument). The queue holds threads blocked awaiting their WHEN condition,
// and is manipulated only under the Nub spin lock.
type gate struct {
	word atomic.Uint64
	qlen atomic.Int32 // mirror of q.Len(), readable outside the spin lock
	nub  spinlock.Lock
	// q orders blocked threads by effective priority, FIFO within a band —
	// the Nub's priority scheduling applied to wakeup selection. While no
	// thread has a nonzero priority every waiter is enqueued at 0 and the
	// order is exactly the old FIFO.
	q       queue.PriorityQueue[*waiter]
	traceID atomic.Uint64 // conformance-trace identity, assigned lazily

	// piHolder is the thread inside a gate with priority inheritance
	// (gatePIBit), guarded by nub; nil when the holder is unknown
	// (anonymous acquisition before priorities were in use) — donors then
	// skip, a heuristic miss.
	piHolder *Thread //threads:guardedby nub
}

// The gate word's layout.
const (
	gateLockedBit = 1 // bit 0: a thread is inside
	// gatePIBit (bit 1) enables priority inheritance on a mutex
	// (Mutex.SetPriorityInheritance): a blocked Acquire donates its
	// priority to the holder, restored at Release. A free PI gate's word
	// is nonzero, so lockFast never takes it, and unlockFast refuses it.
	gatePIBit      = 1 << 1
	gateStampShift = 2 // bits 2..63: the traced transition's stamp
)

// gateStats routes the shared mechanism's counters to the mutex or
// semaphore columns of Stats, and its trace events to the mutex or
// semaphore action kinds.
type gateStats struct {
	fast, spin, nubEnter, backout, park statID
	relFast, relNub, relHandoff         statID
	tkRel                               TraceKind // Release or V
}

var mutexGateStats = gateStats{
	fast: statAcquireFast, spin: statAcquireSpin, nubEnter: statAcquireNub,
	backout: statAcquireBackout, park: statAcquirePark,
	relFast: statReleaseFast, relNub: statReleaseNub, relHandoff: statReleaseHandoff,
	tkRel: TraceRelease,
}

var semGateStats = gateStats{
	fast: statPFast, spin: statPSpin, nubEnter: statPNub,
	backout: statPBackout, park: statPPark,
	relFast: statVFast, relNub: statVNub, relHandoff: statVHandoff,
	tkRel: TraceV,
}

// instr is the instrumentation word, which every Mutex and Semaphore
// operation reads once: zero runs the paper's user code (lockFast,
// unlockFast), and any set bit sends the operation to its outlined slow
// path. SetChecking, EnableStats and Start/StopTracing flip their bits.
var instr atomic.Uint32

const (
	instrTrace uint32 = 1 << iota // conformance tracing
	instrCheck                    // holder checking
	instrStats                    // contention counters
)

// setInstr sets or clears bit alone and reports whether it was set. (A CAS
// loop: atomic.Uint32.Or and And need a newer Go than go.mod names.)
func setInstr(bit uint32, on bool) bool {
	for {
		old := instr.Load()
		next := old &^ bit
		if on {
			next |= bit
		}
		if instr.CompareAndSwap(old, next) {
			return old&bit != 0
		}
	}
}

// tracing reports whether conformance tracing is on.
func tracing() bool { return instr.Load()&instrTrace != 0 }

// lockFast is the user code of Acquire and P while the instrumentation
// word is zero: one test-and-set. False sends the caller to its slow path,
// as it does for a PI gate, whose free word is not 0.
func (g *gate) lockFast() bool {
	return instr.Load() == 0 && g.word.CompareAndSwap(0, gateLockedBit)
}

// unlockFast clears the lock bit if the instrumentation word is zero, no
// thread is queued (the hand-off policy must see a waiter first) and the
// gate has no priority inheritance; false leaves the word alone for the
// caller's slow path. The caller then calls releaseNub if the queue is no
// longer empty — outside, so this inlines.
func (g *gate) unlockFast() bool {
	if instr.Load() != 0 || g.qlen.Load() != 0 || g.word.Load()&gatePIBit != 0 {
		return false
	}
	g.word.Store(0)
	return true
}

// tryAcquire is the slow paths' test-and-set: a single CAS when untraced.
// Traced, the transition is load → draw stamp → CAS, so the stamp is
// certified against any concurrent transition on this gate (trace.go).
func (g *gate) tryAcquire(tc traceCtx) bool {
	if tc.kind == TraceNone {
		if g.word.CompareAndSwap(0, gateLockedBit) {
			return true
		}
		// The word may carry the PI bit, or stale stamp bits from a
		// traced period; one successful untraced transition drops the
		// stamp and keeps the bit.
		w := g.word.Load()
		return w != 0 && w&gateLockedBit == 0 && g.word.CompareAndSwap(w, w&gatePIBit|gateLockedBit)
	}
	w := g.word.Load()
	if w&gateLockedBit != 0 {
		return false
	}
	seq := nextTraceSeq()
	if !g.word.CompareAndSwap(w, seq<<gateStampShift|w&gatePIBit|gateLockedBit) {
		return false
	}
	traceEmit(seq, tc.kind, tc.tid, traceObjID(&g.traceID), tc.obj2, false)
	return true
}

// acquire implements Acquire/P. The user code test-and-sets the lock bit,
// then briefly spins for the holder to leave, and calls the Nub subroutine
// only if the bit stays set. t carries the calling thread when the caller
// already knows it (checked mode, alertable paths); nil lets the slow path
// recover it lazily, and only when priorities are in use.
func (g *gate) acquire(t *Thread, st *gateStats, tc traceCtx) {
	if g.tryAcquire(tc) {
		statInc(st.fast)
		return
	}
	if g.spinAcquire(tc) {
		statInc(st.spin)
		return
	}
	g.acquireNub(t, st, tc)
}

// acquireNub is the Nub subroutine for Acquire. Under the spin lock it adds
// the calling thread to the queue and tests the lock bit again. If the bit
// is still set the thread is descheduled; otherwise it removes itself and
// the entire Acquire operation — beginning at the test-and-set — is
// retried. (SRC Report 20, §Implementation: Mutexes and semaphores.)
//
// One waiter serves every round of the retry loop; the enqueue and the
// back-out happen under a single hold of the Nub lock, so a backed-out
// waiter was never visible to releaseNub and its episode ends unclaimed.
func (g *gate) acquireNub(t *Thread, st *gateStats, tc traceCtx) {
	statInc(st.nubEnter)
	w := getWaiter(t)
	t = w.capturePri(t)
	w.parkStart = handoffNanos()
	for {
		g.nub.Lock()
		g.q.Push(&w.item)
		g.qlen.Add(1)
		if !g.locked() {
			// A Release slipped in before we enqueued; back out and
			// retry from the test-and-set.
			g.q.Remove(&w.item)
			g.qlen.Add(-1)
			g.nub.Unlock()
			statInc(st.backout)
		} else {
			g.piDonate(w)
			g.nub.Unlock()
			statInc(st.park)
			if w.park() == reasonHandoff && g.finishHandoff(w, tc) {
				return
			}
		}
		if g.tryAcquire(tc) {
			w.endEpisode()
			return
		}
		w.begin()
	}
}

// release implements Release/V. The user code clears the lock bit and calls
// the Nub subroutine only if the queue is not empty. Traced, the clearing
// transition draws a stamp inside its CAS window and emits the
// Release/V event; the loop only retries when a concurrent transition
// intervened (possible for semaphores, whose V has no REQUIRES clause).
func (g *gate) release(st *gateStats, tc traceCtx) {
	if g.qlen.Load() != 0 && g.releaseHandoff(st, tc) {
		return
	}
	if tc.kind == TraceNone {
		// Only a mutex has the PI bit, and only its holder writes its
		// held word, so the load and the store are one transition.
		g.word.Store(g.word.Load() & gatePIBit)
	} else {
		for {
			w := g.word.Load()
			seq := nextTraceSeq()
			if g.word.CompareAndSwap(w, seq<<gateStampShift|w&gatePIBit) {
				traceEmit(seq, tc.kind, tc.tid, traceObjID(&g.traceID), 0, false)
				break
			}
		}
	}
	g.releaseCommon(st)
}

// releaseEmbed is release for traced Wait's mutex hand-off: the caller has
// already emitted an Enqueue event (which subsumes the specification-level
// Release) with stamp seq, and the stamp is embedded in the word so any
// later Acquire of this mutex outranks the Enqueue. Only the holder calls
// this, and no other transition changes a held mutex's word, so a plain
// store is the transition.
func (g *gate) releaseEmbed(st *gateStats, seq uint64) {
	g.word.Store(seq<<gateStampShift | g.word.Load()&gatePIBit)
	g.releaseCommon(st)
}

func (g *gate) releaseCommon(st *gateStats) {
	if g.qlen.Load() == 0 {
		statInc(st.relFast)
		return
	}
	g.releaseNub(st)
}

// releaseNub is the Nub subroutine for Release: take one thread from the
// queue and make it ready. The woken thread retries its test-and-set and
// may lose to a barging acquirer; the specification does not say which of
// the blocked threads runs next, nor when.
//
// The claim happens while the Nub lock is still held: a popped waiter
// cannot finish its episode (and be reused) before its thread reacquires
// this lock on the alerted path, so the claim always addresses the episode
// the pop belonged to.
func (g *gate) releaseNub(st *gateStats) {
	statInc(st.relNub)
	g.nub.Lock()
	for {
		n := g.q.Pop()
		if n == nil {
			g.nub.Unlock()
			return
		}
		g.qlen.Add(-1)
		w := n.Value
		if w.claim(reasonWake) {
			// Not a transfer: the woken thread retries its test-and-set.
			// A PI gate's holder was cleared by Mutex.leaving before the
			// word transition, and may already name a barging acquirer.
			g.nub.Unlock()
			w.wake()
			return
		}
		// The waiter was claimed by Alert after enqueueing; it no
		// longer needs this wakeup. Give it to the next thread.
	}
}

// releaseHandoff hands the gate directly to a queued waiter instead of
// clearing the lock bit and letting the woken thread race barging
// acquirers (see handoff.go for the policy). Returns true if the release
// was consumed by a transfer; false sends the caller down the ordinary
// clear-and-wake path.
//
// Untraced, the transfer touches the word not at all: the bit stays set
// and ownership passes to the recipient on the wake's happens-before edge.
// That requires the bit to BE set — the caller's token is what is being
// gifted. For a mutex it always is (only the holder releases); for a
// semaphore a V with the bit already clear has no token in hand, and
// handing one off anyway would let a later P acquire the cleared word and
// admit two threads on one token.
//
// Traced, the transfer must appear in the linearized trace as the release
// followed immediately by the recipient's acquisition, with no event on
// this gate in between. Two certified transitions arrange that: the first
// CAS is the ordinary stamped release (seqR); the second CAS re-takes the
// word for the recipient with a fresh stamp (seqA). The second CAS can
// fail only if some other transition intervened (a barging acquirer's CAS,
// a concurrent V) — exactly the case in which a pre-drawn stamp would have
// replayed as an acquisition of an unavailable gate — and then the
// transfer is demoted: the recipient wakes with handoffSeq handoffDemoted
// and retries its test-and-set like any woken thread. Stamp order equals
// CAS order for every certified transition (trace.go), so the replay sees
// ... Release(seqR), Acquire(seqA) ... and stays clean.
func (g *gate) releaseHandoff(st *gateStats, tc traceCtx) bool {
	mode := HandoffMode(handoffMode.Load())
	if mode == HandoffOff || !g.locked() {
		return false
	}
	var cutoff int64
	if mode == HandoffAdaptive {
		cutoff = handoffNanos() - handoffStarveNs
	}
	g.nub.Lock()
	if mode == HandoffAdaptive {
		// Adaptive policy: hand off only once the queue's head has
		// starved past the threshold. parkStart was written before the
		// waiter was published to the queue, so reading it under the Nub
		// lock is ordered; 0 means the head has not committed to parking
		// yet and certainly is not starving.
		n := g.q.Peek()
		if n == nil || n.Value.parkStart == 0 || n.Value.parkStart > cutoff {
			g.nub.Unlock()
			return false
		}
	}
	var w *waiter
	for {
		n := g.q.Pop()
		if n == nil {
			g.nub.Unlock()
			return false
		}
		g.qlen.Add(-1)
		w = n.Value
		if w.claim(reasonHandoff) {
			break
		}
		// Claimed by Alert after enqueueing; it no longer wants the gate.
	}
	if g.pi() {
		// The transfer makes w's thread the holder the moment the wake
		// lands; install it while the nub lock still serializes donors.
		g.piHolder = w.owner
	}
	g.nub.Unlock()
	statInc(st.relHandoff)
	if tc.kind == TraceNone {
		w.handoffSeq = 0
		w.wake()
		return true
	}
	for {
		old := g.word.Load()
		pi := old & gatePIBit
		seqR := nextTraceSeq()
		if !g.word.CompareAndSwap(old, seqR<<gateStampShift|pi) {
			continue
		}
		traceEmit(seqR, st.tkRel, tc.tid, traceObjID(&g.traceID), 0, false)
		seqA := nextTraceSeq()
		if g.word.CompareAndSwap(seqR<<gateStampShift|pi, seqA<<gateStampShift|pi|gateLockedBit) {
			w.handoffSeq = seqA
		} else {
			w.handoffSeq = handoffDemoted // a concurrent transition intervened
		}
		w.wake()
		return true
	}
}

// finishHandoff completes a direct hand-off on the recipient side, after
// its park returned reasonHandoff. A demoted transfer returns false: the
// caller must retry its test-and-set (the episode is then left open for the
// retry loop). Otherwise the gate is ours — the bit never cleared, or the
// releaser's second CAS took it for us — and a traced caller emits the
// event that CAS certified. The demotion is read from the waiter, not from
// tc: AlertWait's Raise path reacquires with a zero tc while the releaser
// traces, and must not take a demoted transfer for an untraced one.
func (g *gate) finishHandoff(w *waiter, tc traceCtx) bool {
	seq := w.handoffSeq
	if seq == handoffDemoted {
		return false
	}
	w.endEpisode()
	if tc.kind != TraceNone {
		traceEmit(seq, tc.kind, tc.tid, traceObjID(&g.traceID), tc.obj2, false)
	}
	return true
}

// alertableAcquire implements AlertP's blocking discipline: like acquire,
// but the wait can be claimed by Alert(t), in which case the thread leaves
// the queue and reports the alert instead of acquiring. tc carries the
// normal-return event (AlertP.Return); on the alerted paths no gate event
// is emitted — the caller records AlertP.Raise under t's alertLock, where
// the alerts-set deletion is serialized against Alert and TestAlert.
func (g *gate) alertableAcquire(t *Thread, st *gateStats, tc traceCtx) (alerted bool) {
	if g.tryAcquire(tc) {
		// Both WHEN clauses of AlertP may be enabled at once (s
		// available and SELF in alerts); the implementation is free to
		// choose, and the fast path chooses to return normally.
		statInc(st.fast)
		return false
	}
	if !t.alerted.Load() && g.spinAcquire(tc) {
		statInc(st.spin)
		return false
	}
	statInc(st.nubEnter)
	w := getWaiter(t)
	w.capturePri(t)
	w.parkStart = handoffNanos()
	for {
		t.setAlertWaiter(w)
		// A pending alert claims the wait immediately: the WHEN clause
		// of the RAISES case is already true. (If the self-claim loses
		// to a concurrent Alert, the Alert's wake token is consumed by
		// the park or drain below.)
		if t.alerted.Load() && w.claim(reasonAlert) {
			t.clearAlertWaiter()
			w.endEpisode()
			return true
		}
		g.nub.Lock()
		g.q.Push(&w.item)
		g.qlen.Add(1)
		if !g.locked() {
			g.q.Remove(&w.item)
			g.qlen.Add(-1)
			g.nub.Unlock()
			statInc(st.backout)
			t.clearAlertWaiter()
			if w.reason() == reasonAlert {
				// Alert claimed us while we backed out; honor it. The
				// enqueue and back-out were one critical section, so
				// only Alert can have claimed — and it owes a wake
				// token, which must be consumed before reuse.
				w.drain()
				w.endEpisode()
				return true
			}
			if g.tryAcquire(tc) {
				w.endEpisode()
				return false
			}
			w.begin()
			continue
		}
		g.piDonate(w)
		g.nub.Unlock()
		statInc(st.park)
		reason := w.park()
		t.clearAlertWaiter()
		if reason == reasonAlert {
			// Leave the queue before reporting the alert so a later V
			// is not absorbed by a departed thread.
			g.nub.Lock()
			if g.q.Remove(&w.item) {
				g.qlen.Add(-1)
			}
			g.nub.Unlock()
			w.endEpisode()
			return true
		}
		if reason == reasonHandoff && g.finishHandoff(w, tc) {
			// A racing Alert that lost the claim stays pending for the
			// next alertable point — the implementation chose RETURNS,
			// as the fast path does.
			return false
		}
		if g.tryAcquire(tc) {
			w.endEpisode()
			return false
		}
		w.begin()
	}
}

// ---------------------------------------------------------------------------
// Priority inheritance (Mutex opt-in).
//
// A blocked Acquire on a PI gate donates its effective priority to the
// holder; the holder's Release removes the donation. Donation and holder
// maintenance are serialized by the gate's nub spin lock: donors read
// piHolder and donate while holding it, and the releaser clears piHolder
// under it before undonating, so no donation can land on a thread that has
// already left the gate — a boost can therefore never outlive the hold it
// compensates for. The nesting nub → donLock is the package's only
// spin-lock nesting; donLock acquires nothing, so no cycle is possible.
//
// The boost itself is a scheduling heuristic on this backend: the Go
// scheduler does not expose thread priorities, so inheritance acts through
// wakeup ordering (the boosted holder's own subsequent waits outrank the
// medium band) rather than preemption. The simulated Firefly
// (internal/simthreads) implements the exact form, where the boost
// reorders the ready pool retroactively; the priority-inversion litmus
// model-checks that form, and the conformance stamps emitted here hold
// both backends to the same boost/restore discipline.
// ---------------------------------------------------------------------------

// pi reports the gate's priority-inheritance bit.
func (g *gate) pi() bool { return g.word.Load()&gatePIBit != 0 }

// piDonate donates the enqueued waiter's priority to the gate's holder.
// Called with g.nub held, after the waiter committed to parking. No-ops
// unless PI is on, the holder is known, and the donation would raise it.
func (g *gate) piDonate(w *waiter) {
	if !g.pi() {
		return
	}
	h := g.piHolder
	if h == nil || h == w.owner {
		return
	}
	pri := int32(w.item.Priority)
	if pri > h.effPri.Load() {
		h.donate(g, pri)
	}
}

// piSetHolder records t as the gate's current occupant for donation
// targeting. Called by every PI-mutex acquisition path once it holds the
// gate.
func (g *gate) piSetHolder(t *Thread) {
	g.nub.Lock()
	g.piHolder = t
	g.nub.Unlock()
}

// piClearHolder removes and returns the recorded occupant; the caller (the
// releasing holder) then undonates. Clearing under nub before the lock
// word transitions means a donor serialized after us sees nil and skips.
func (g *gate) piClearHolder() *Thread {
	g.nub.Lock()
	h := g.piHolder
	g.piHolder = nil
	g.nub.Unlock()
	return h
}

// locked reports the lock bit (true = held/unavailable).
func (g *gate) locked() bool { return g.word.Load()&gateLockedBit != 0 }

// waiters returns the current queue length (advisory).
func (g *gate) waiters() int { return int(g.qlen.Load()) }
