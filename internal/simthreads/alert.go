package simthreads

import (
	"threads/internal/sim"
	"threads/internal/spec"
)

// Alert requests that thread t raise Alerted: it inserts t into the alerts
// set and, if t is blocked in AlertWait or AlertP, claims and wakes it. A
// thread blocked in plain Acquire, Wait or P is not disturbed.
func (w *World) Alert(e *sim.Env, t *sim.T) {
	e.Work(callCost)
	w.nubLock(e)
	st := w.state(t)
	st.alerted = true
	if w.traced {
		self := w.state(e.Self())
		p := at(&self.acts, 2+int(st.id))
		if *p == nil {
			*p = spec.Alert{T: self.id, Target: st.id}
		}
		e.Emit(*p)
	}
	if st.alertTgt != nil && st.wakeup == wakeNone {
		st.wakeup = wakeAlert
		e.MakeReady(t)
	}
	w.nubUnlock(e)
}

// TestAlert reports whether the calling thread has a pending alert,
// consuming it.
func (w *World) TestAlert(e *sim.Env) bool {
	e.Work(callCost)
	w.nubLock(e)
	st := w.state(e.Self())
	b := st.alerted
	st.alerted = false
	if w.traced {
		i := 0
		if b {
			i = 1
		}
		p := at(&st.acts, i)
		if *p == nil {
			*p = spec.TestAlert{T: st.id, Result: b}
		}
		e.Emit(*p)
	}
	w.nubUnlock(e)
	return b
}

// AlertPending reports t's alert flag without simulating an access
// (assertions only).
func (w *World) AlertPending(t *sim.T) bool { return w.state(t).alerted }
