package checker

import (
	"fmt"

	"threads/internal/sim"
)

// simDeadline is the deadline/completion race in virtual time: an owner
// whose first wait carries a deadline (a DeadlineTimer fired by a dedicated
// timer thread — the explored position of that one step IS the firing
// time, and the one step races the owner's one stop exactly as a runtime
// timer's function races its Stop), a signaler that satisfies both of the
// owner's waits, and a second, deadline-less alertable wait that detects
// poisoning. The owner's epilogue is CancelAndDrain, the stop-or-await
// handshake core's deadline variants use; with
// broken=true it is CancelBroken — the timer.Stop-with-no-drain pattern —
// and the schedule that fires the timer after the first wait is satisfied
// leaks the alert into the second wait (the violation the broken litmus
// expects exploration to find).
func simDeadline(broken bool) SimProgram {
	return SimProgram{
		Procs: 3,
		Build: reusable(func(b *builder) func() error {
			m := b.mutex()
			c := b.cond()
			dt := b.timer()
			// stage advances 0→1→2 as the signaler ends each of the
			// owner's waits; the detectors record outcomes.
			stage, wait1Alerted, fired, poisoned := b.word(), b.word(), b.word(), b.word()
			owner := b.spawn("owner", func(e *sim.Env) {
				m.Acquire(e)
				// First wait, with a deadline: ended by the signaler
				// (stage 1) or by the timer's alert.
				for e.Load(stage) == 0 {
					if c.AlertWait(e, m) {
						e.Store(wait1Alerted, 1)
						break
					}
				}
				if broken {
					// The buggy epilogue: Stop without draining. Whether
					// the timer already fired is unknowable here — that is
					// the bug.
					dt.CancelBroken(e)
				} else if dt.CancelAndDrain(e) {
					e.Store(fired, 1)
				}
				// Second wait, no deadline: only the signaler may end it.
				// An Alerted return here is the stale alert leaking in.
				for e.Load(stage) < 2 {
					if c.AlertWait(e, m) {
						e.Store(poisoned, 1)
						break
					}
				}
				m.Release(e)
			})
			b.spawn("signaler", func(e *sim.Env) {
				m.Acquire(e)
				e.Store(stage, 1)
				m.Release(e)
				c.Broadcast(e)
				m.Acquire(e)
				e.Store(stage, 2)
				m.Release(e)
				c.Broadcast(e)
			})
			b.spawn("timer", func(e *sim.Env) {
				dt.Fire(e, owner)
			})
			return func() error {
				if poisoned.Peek() != 0 {
					return fmt.Errorf("stale deadline alert poisoned the second wait")
				}
				if !broken && wait1Alerted.Peek() != 0 && fired.Peek() == 0 {
					return fmt.Errorf("first wait alerted but the timer never fired (no other alerter exists)")
				}
				return nil
			}
		}),
	}
}
