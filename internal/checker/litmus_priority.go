package checker

import (
	"fmt"

	"threads/internal/sim"
	"threads/internal/simthreads"
)

// simPriorityInversion is the classic three-thread priority-inversion
// scenario (the Mars Pathfinder shape) on a SINGLE processor with time
// slicing — the one litmus where the kernel's priority dispatch, not the
// explorer, decides who runs:
//
//   - low (priority 1) takes the mutex, signals high to start, then holds
//     the lock across a long computation;
//   - high (priority 3) releases medium and blocks on the mutex;
//   - medium (priority 2) is pure CPU-bound work: it never touches the
//     mutex, it just spins until it sees high finish or its budget runs out.
//
// Without priority inheritance, medium (2) outranks the lock-holding low
// (1) on the single processor, so low never runs, the mutex is never
// released, and high — the most urgent thread in the system — waits behind
// a thread that doesn't even share its lock. Medium's budget expires with
// high still blocked: inversion, flagged by the `starved` detector.
//
// With inheritance, high's blocked Acquire donates priority 3 to low; low
// (effective 3) now outranks medium, finishes the critical section,
// releases — restoring its base priority — and high completes before
// medium's spin budget is half spent.
//
// The quantum is sized so low is preempted inside its critical section
// (after the signalling store wakes high), which is what puts the lock
// holder at the ready pool's mercy. Medium's spin budget comfortably
// exceeds the with-inheritance wait, so the clean face has slack, while
// the broken face starves deterministically.
func simPriorityInversion(pi bool) SimProgram {
	return SimProgram{
		Procs:   1,
		Quantum: 6,
		Opts:    simthreads.WorldOptions{PriorityInheritance: pi},
		Build: reusable(func(b *builder) func() error {
			m := b.mutex()
			// Start gates are raw words watched via AwaitChange (the
			// simPeterson idiom): a simthreads Semaphore is INITIALLY
			// available, so P would not gate anything.
			startHigh, startMed, highDone, starved := b.word(), b.word(), b.word(), b.word()
			b.spawnPri("low", 1, func(e *sim.Env) {
				m.Acquire(e)
				e.Store(startHigh, 1)
				e.Work(8) // long critical section; the quantum expires here
				m.Release(e)
			})
			b.spawnPri("high", 3, func(e *sim.Env) {
				e.AwaitChange(sim.WordVal{W: startHigh, Old: 0})
				e.Store(startMed, 1)
				m.Acquire(e)
				e.Store(highDone, 1)
				m.Release(e)
			})
			b.spawnPri("med", 2, func(e *sim.Env) {
				e.AwaitChange(sim.WordVal{W: startMed, Old: 0})
				// CPU-bound medium-priority work, bounded so every schedule
				// terminates: give up after `budget` spins and report
				// whether high ever got through.
				const budget = 40
				for spun := 0; e.Load(highDone) == 0 && spun < budget; spun++ {
					e.Work(1)
				}
				if e.Load(highDone) == 0 {
					e.Store(starved, 1)
				}
			})
			return func() error {
				if starved.Peek() != 0 {
					return fmt.Errorf("priority inversion: medium-priority compute starved the lock holder while the high-priority thread was blocked on the mutex")
				}
				if highDone.Peek() == 0 {
					return fmt.Errorf("the high-priority thread never completed its critical section")
				}
				return nil
			}
		}),
	}
}
