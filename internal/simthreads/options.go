package simthreads

import "threads/internal/sim"

// WorldOptions disable individual optimizations of the paper's
// implementation, for the ablation experiments: each option removes one
// design decision §Implementation motivates, so its cost can be measured in
// isolation.
type WorldOptions struct {
	// NoUserFastPath removes the user-space layer entirely: every
	// Acquire/Release/P/V enters the Nub and runs under the global spin
	// lock, as a naive single-layer implementation would. The paper's
	// point: "The user code avoids the overhead of calling the Nub in
	// these cases" — this option restores that overhead.
	NoUserFastPath bool
	// NoSignalFastPath makes Signal and Broadcast always call the Nub,
	// even when no thread is in c, queued or about to block (removing
	// "Signal and Broadcast avoid calling the Nub if there are no threads
	// to unblock").
	NoSignalFastPath bool
	// NubAwait makes the Nub spin lock block on the lock word (an await)
	// instead of busy-waiting on test-and-set. Acquisition order and
	// visible behavior are unchanged — a spinning thread makes no progress
	// either way — but the schedule explorer (internal/explore) needs the
	// blocking form so its controlled decision tree is finite; a busy-wait
	// under an adversarial scheduler is an unbounded chain of decision
	// points. Leave it off for performance experiments: awaits are not
	// charged the spin instructions.
	NubAwait bool
	// DirectHandoff makes Release/V transfer the gate straight to a queued
	// waiter (lock bit never cleared) instead of the paper's clear-and-wake
	// protocol — the same fairness fix internal/core ships (see
	// core.HandoffMode). The simulated form is unconditional (no adaptive
	// threshold: the simulator has no starvation clock) and applies only to
	// the fast-path release; the NoUserFastPath ablation composes with it
	// by simply never reaching the hand-off.
	DirectHandoff bool
	// PriorityInheritance enables priority inheritance on every mutex the
	// world creates, mirroring core.Mutex.SetPriorityInheritance: a blocked
	// Acquire donates its priority to the holder, and the release removes
	// the donation. The priority-inversion litmus runs once with this off
	// (the explorer must find the inversion) and once with it on (the
	// explorer must come up clean).
	PriorityInheritance bool
	// BuggyAlertSeize reintroduces, at the implementation level, the bug
	// the first released specification permitted (spec.VariantNoMNil):
	// AlertWait's Raise path returns without waiting for the mutex to be
	// free — the alerted thread barges into the region the mutex guards
	// even while another thread holds it. The schedule explorer uses it as
	// the known-broken litmus whose violation every exploration must
	// rediscover (experiment E7 at the schedule level).
	BuggyAlertSeize bool
}

// NewWorldOpts is NewWorld with ablation options: a new World's first
// Reset.
func NewWorldOpts(cfg sim.Config, opts WorldOptions) (*World, *Kernel) {
	w := new(World)
	return w, w.Reset(cfg, opts)
}

// acquireNubOnly is the ablated Acquire: the whole operation runs under the
// Nub spin lock — test the bit, take it or queue and deschedule.
func (g *gate) acquireNubOnly(e *sim.Env, reason string, onAcquired lin) {
	w := g.w
	self := e.Self()
	st := w.state(self)
	for {
		e.Work(callCost)
		w.nubLock(e)
		if e.Load(&g.lockBit) == 0 {
			e.Store(&g.lockBit, 1)
			if g.pi {
				g.holder = self
			}
			onAcquired.run(g.w)
			w.nubUnlock(e)
			w.Stats.AcquireNub++
			return
		}
		g.q.push(e, self)
		e.Store(&g.qne, 1)
		w.piDonate(e, g, self)
		w.nubUnlock(e)
		w.Stats.AcquireNub++
		w.Stats.AcquirePark++
		e.Deschedule(reason)
		st.wakeup = wakeNone
	}
}

// releaseNubOnly is the ablated Release: clear the bit and wake a waiter,
// all under the spin lock.
func (g *gate) releaseNubOnly(e *sim.Env, onReleased lin) {
	w := g.w
	e.Work(callCost)
	w.nubLock(e)
	var prevHolder *sim.T
	if g.pi {
		prevHolder = g.holder
		g.holder = nil
	}
	e.Store(&g.lockBit, 0)
	onReleased.run(g.w)
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
	}
	w.piUndonate(e, g, prevHolder)
	w.nubUnlock(e)
	w.Stats.ReleaseNub++
}
