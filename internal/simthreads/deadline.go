package simthreads

import "threads/internal/sim"

// DeadlineTimer models one armed deadline timer (internal/core's
// deadlineTimer, a Go runtime timer) on the simulated multiprocessor, in
// virtual time: the goroutine the runtime starts for the timer's function
// becomes an explicit "timer" thread whose single Fire step the explorer
// places anywhere in the schedule. Where the step lands
// IS the firing time — before the wait (a pending alert), during it (the
// deadline path), or after the wait is satisfied (the stale-alert race) —
// so bounded-exhaustive exploration model-checks every deadline/completion
// interleaving without any clock.
//
// The claim word stands for the runtime timer's own state, which its Stop
// races: Stop either removes the timer before its function starts (the
// cancel's TAS wins) or finds the function started (Fire's TAS won). The
// first TAS wins; exactly one of Fire and Cancel takes effect.
type DeadlineTimer struct {
	w     *World
	claim sim.Word // 0 = armed; 1 = claimed by Fire or by a cancel
	fired sim.Word // the fire's token, set after the Alert is delivered
}

// NewDeadlineTimer creates an armed timer (the simulated analogue of
// core's armDeadline).
func (w *World) NewDeadlineTimer() *DeadlineTimer {
	w.nextTimer++
	if w.nextTimer > len(w.timers) {
		w.timers = append(w.timers, &DeadlineTimer{w: w})
	}
	dt := w.timers[w.nextTimer-1]
	dt.claim.Poke(0)
	dt.fired.Poke(0)
	return dt
}

// Fire delivers the deadline to t: the timer thread's one step, placed by
// the explored schedule. A cancel that already claimed the entry makes
// Fire a no-op.
func (dt *DeadlineTimer) Fire(e *sim.Env, t *sim.T) {
	if e.TAS(&dt.claim) != 0 {
		return // cancelled first: the deadline never fires
	}
	dt.w.Alert(e, t)
	e.Store(&dt.fired, 1)
}

// CancelAndDrain is the deadline epilogue run by the owning thread on every
// exit path (core's cancelAndDrain + finishDeadline drain): stop the timer
// or, if Fire won, await its token and drain the alert so it cannot poison
// a later wait. Reports whether the deadline fired.
func (dt *DeadlineTimer) CancelAndDrain(e *sim.Env) (fired bool) {
	if e.TAS(&dt.claim) == 0 {
		return false // Stop won: the timer never alerted and never will
	}
	for {
		v := e.Load(&dt.fired)
		if v != 0 {
			break
		}
		e.AwaitChange(sim.WordVal{W: &dt.fired, Old: v})
	}
	_ = dt.w.TestAlert(e) // drain; false if the wait consumed the alert itself
	return true
}

// CancelBroken models the hand-rolled pattern this package's deadline
// variants replace: timer.Stop with no drain. A Stop that loses the race
// (Fire already claimed) leaves the delivered alert pending — the
// stale-alert bug the "deadline-broken" litmus expects exploration to
// expose.
func (dt *DeadlineTimer) CancelBroken(e *sim.Env) {
	e.TAS(&dt.claim)
}
