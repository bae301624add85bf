package core

import (
	"sync"
	"sync/atomic"

	"threads/internal/queue"
)

// Wake reasons. Wakers claim a parked waiter by compare-and-swapping the
// reason bits of its state word from reasonNone; exactly one waker wins, so
// each waiter receives exactly one wakeup per blocking episode. A Signal
// that loses the race to an Alert re-pops the queue and wakes another
// thread instead — this is the implementation-level counterpart of the
// corrected AlertWait specification, under which a thread that raises
// Alerted leaves the condition variable rather than silently absorbing a
// later Signal.
const (
	reasonNone  uint64 = iota
	reasonWake         // Release, V, Signal or Broadcast
	reasonAlert        // Alert
	// reasonHandoff is a direct hand-off: the releaser transferred
	// ownership of its gate to this waiter instead of clearing the lock
	// bit, so the woken thread returns holding without retrying its
	// test-and-set. (A traced hand-off whose certification failed is
	// demoted: the claim still reads reasonHandoff but handoffSeq is
	// handoffDemoted and the recipient retries like a plain wake; see
	// gate.releaseHandoff.)
	reasonHandoff
)

// handoffDemoted is the handoffSeq of a demoted hand-off. Trace stamps
// count up from 1 and never reach it.
const handoffDemoted = ^uint64(0)

const (
	// The low bits of the state word hold the wake reason; the rest is the
	// episode generation. genStep advances the generation while clearing
	// the reason bits.
	reasonMask = 0x3
	genStep    = reasonMask + 1
)

// waiter represents one blocked occurrence of a thread: a node on a mutex,
// semaphore or condition queue plus a one-shot parking place. Waiters are
// reused across blocking episodes — each Fork-created Thread caches one,
// and anonymous or adopted blockers draw from a sync.Pool — so the slow
// paths allocate nothing per park.
//
// Reuse makes the wake/alert claim races that per-episode allocation used
// to paper over explicit: a waker that loses the reason CAS may still hold
// a reference after the blocked call has returned and the waiter has begun
// a new episode. The state word guards against that: it packs a generation
// counter above the reason bits, begin() advances the generation, and a
// claim succeeds only if the state still matches the epoch the claimer
// captured while the waiter was provably current (under the lock guarding
// the queue or alert registration the reference came from). A stale claim
// therefore fails the CAS no matter when it lands.
type waiter struct {
	// item is the intrusive priority-queue element linking this waiter into
	// a gate or condition queue. Priority is the blocking thread's effective
	// priority captured at park time (0 unless some thread in the process
	// has a nonzero priority — see capturePri), so wakeup selection is
	// priority-then-FIFO and degenerates to exactly the old FIFO order when
	// priorities are unused.
	item  queue.PItem[*waiter]
	state atomic.Uint64 // generation<<2 | reason
	// owner is the blocking Thread when known (alertable paths always, any
	// path once priorities are in use); nil for anonymous blockers.
	// releaseHandoff reads it under the gate's Nub lock to install the
	// hand-off recipient as the priority-inheritance holder.
	owner *Thread
	// parked is the one-shot parking place, reused across generations. Per
	// episode at most one token is sent (by the winning claimer) and
	// exactly one is consumed (by park, or by drain on the paths that
	// back out after a claim), so the channel is always empty between
	// episodes.
	parked chan struct{}
	// pooled marks waiters owned by waiterPool rather than cached on a
	// Thread; endEpisode returns only those to the pool.
	pooled bool
	// parkStart records when this episode committed to the slow path
	// (handoffNanos units); 0 until then. releaseHandoff reads it under
	// the gate's Nub lock to apply the adaptive starvation threshold; it
	// is always written before the waiter is published to a queue, so the
	// queue's lock ordering makes the plain field race-free.
	parkStart int64
	// handoffSeq carries the certified acquisition stamp of a traced
	// direct hand-off to the recipient (0 for an untraced hand-off,
	// handoffDemoted for a demoted one). Written by the releaser before
	// wake, read by the recipient after park: ordered by the parking
	// channel.
	handoffSeq uint64
}

func newWaiter() *waiter {
	w := &waiter{parked: make(chan struct{}, 1)}
	w.item.Value = w
	return w
}

var waiterPool = sync.Pool{New: func() any {
	w := newWaiter()
	w.pooled = true
	return w
}}

// getWaiter returns a waiter ready for a new blocking episode. Fork-created
// threads reuse the waiter cached on the Thread; anonymous blockers (plain
// Acquire/P/Wait never compute SELF) and adopted goroutines take the pool
// path.
func getWaiter(t *Thread) *waiter {
	var w *waiter
	if t != nil && t.parkW != nil {
		w = t.parkW
	} else {
		w = waiterPool.Get().(*waiter)
	}
	w.begin()
	w.parkStart = 0
	w.handoffSeq = 0
	w.owner = t
	w.item.Priority = 0
	return w
}

// capturePri stamps the waiter with its thread's effective priority before
// it is published to a queue. While no thread in the process has a nonzero
// priority this is a single atomic load and the anonymous slow paths never
// compute SELF; once priorities are in use, an anonymous blocker pays the
// identity lookup on the park path (never on the fast path) so the queues
// can order it. Returns the (possibly just recovered) thread.
func (w *waiter) capturePri(t *Thread) *Thread {
	if !prioInUse.Load() {
		return t
	}
	if t == nil {
		t = Self()
		w.owner = t
	}
	w.item.Priority = queue.Priority(t.effPri.Load())
	return t
}

// endEpisode declares the current blocking episode over: every claim has
// been resolved and any wake token has been consumed. The waiter may be
// handed out again (possibly to another goroutine, via the pool) at any
// moment after this call.
func (w *waiter) endEpisode() {
	if w.pooled {
		waiterPool.Put(w)
	}
}

// begin opens a new episode: the generation advances and the reason bits
// clear in one store. Safe against stale claimers because their captured
// epochs carry an older generation and their CASes fail; no claim with the
// *current* generation can be in flight here, since the previous episode
// resolved all of them before endEpisode.
func (w *waiter) begin() {
	w.state.Store((w.state.Load() &^ reasonMask) + genStep)
}

// epoch captures the current state word for a later claimAt, and reports
// whether the waiter is still unclaimed. Callers must hold the lock that
// makes their reference to w current (the Nub spin lock for queued
// waiters, the thread's alertLock for alert registrations); the returned
// epoch then stays valid for a claimAt issued after the lock is dropped.
func (w *waiter) epoch() (e uint64, unclaimed bool) {
	e = w.state.Load()
	return e, e&reasonMask == reasonNone
}

// claimAt attempts to claim the waiter for reason against a captured
// epoch, reporting whether the caller won. The winner must subsequently
// call wake exactly once (self-claims, where the blocked thread claims its
// own waiter before parking, skip the wake). A claim against a stale epoch
// — the episode ended and a new one began — fails.
func (w *waiter) claimAt(e uint64, reason uint64) bool {
	return w.state.CompareAndSwap(e, e|reason)
}

// claim is epoch+claimAt for callers whose reference is current for the
// whole call (they hold the guarding lock, or the waiter is their own).
func (w *waiter) claim(reason uint64) bool {
	e, unclaimed := w.epoch()
	return unclaimed && w.claimAt(e, reason)
}

// reason returns the claimed reason bits (reasonNone if unclaimed).
func (w *waiter) reason() uint64 {
	return w.state.Load() & reasonMask
}

// park blocks until a waker claims and wakes this waiter, then returns the
// claimed reason.
func (w *waiter) park() uint64 {
	<-w.parked
	return w.reason()
}

// wake releases the parked thread. It must be called exactly once, by the
// waker whose claim succeeded; the buffered channel makes it non-blocking
// and safe to call before park is reached.
func (w *waiter) wake() {
	w.parked <- struct{}{}
}

// drain consumes the wake token of a claim whose park was never reached —
// the blocked call backed out (or elided the wait) after an Alert claimed
// it. The token may still be in flight; drain blocks until it lands, so
// the episode cannot end with a stray token that would corrupt the next
// park on this (reused) waiter.
func (w *waiter) drain() {
	<-w.parked
}
