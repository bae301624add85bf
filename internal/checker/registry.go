package checker

import (
	"fmt"
	"sort"

	"threads/internal/sim"
	"threads/internal/simthreads"
	"threads/internal/spec"
)

// This file is the litmus registry: the table of named scenarios that both
// verification engines draw from. Each Litmus has up to two faces:
//
//   - Spec: a spec-level Config this package's explicit-state checker
//     explores exhaustively (every interleaving of the abstract atomic
//     actions);
//   - Sim: an implementation-level program internal/explore drives through
//     the simulated Firefly under controlled scheduling, replaying every
//     schedule's linearization trace through internal/trace.
//
// Registering a scenario here is all it takes to have it model-checked and
// schedule-explored: the checker tests, `threadsim -explore`, `threadsim
// -fuzz` and the CI pipelines all iterate the registry. A new derived
// primitive gets coverage by adding one entry whose Build expresses it with
// the simulated primitives (see "rwlock" below for the pattern).

// SimProgram is the implementation-level face of a litmus: a program on the
// simulated multiprocessor, sized so bounded-exhaustive schedule
// enumeration stays tractable.
type SimProgram struct {
	// Procs is the processor count to run with — usually at least the
	// thread count, so every ready thread is a scheduling candidate and the
	// explorer controls the full interleaving space. Scheduler litmuses
	// (priority inversion) instead run with FEWER processors than threads,
	// so the kernel's priority dispatch — the subject under test — decides
	// who runs.
	Procs int
	// Quantum is the time-slice length in cost units (0 disables time
	// slicing). Scheduler litmuses need it so a compute-bound thread can be
	// preempted by a higher-priority wakeup.
	Quantum uint64
	// Opts configures the World (the broken litmus turns on
	// BuggyAlertSeize). The explorer adds NubAwait itself.
	Opts simthreads.WorldOptions
	// Build creates the program's primitives and threads (each thread
	// must have a unique name — schedule certificates refer to threads by
	// name) and returns a check run after the kernel stops: nil means the
	// outcome is correct. Check functions use Peek only.
	//
	// The explorer calls Build before every schedule, on one world that
	// it resets in place (simthreads.World.Reset). For its runs to
	// allocate nothing, a Build that runs again on a world it has already
	// built on allocates nothing: its first call keeps what it makes —
	// words, thread bodies, names and check — in the world's program slot
	// (simthreads.World.Program), and later calls take the world's
	// objects again in the same order, poke the words back to their
	// initial values and spawn the same bodies. The registry's programs
	// do so through reusable, and the explorer's
	// TestReusedRunAllocationFree holds them to it. A Build called on a
	// new world, as perfbench's verify set-up does, makes everything.
	Build func(w *simthreads.World, k *simthreads.Kernel) (check func() error)
}

// Litmus is one named scenario in the registry.
type Litmus struct {
	Name string
	Desc string
	// ExpectViolation marks intentionally broken scenarios: exploration
	// MUST find a violation (not finding one is a checker regression).
	ExpectViolation bool
	// Spec returns the spec-level model-checking config; nil if the
	// scenario only exists at the implementation level.
	Spec func() Config
	Sim  SimProgram
}

// entry is one row of the registry: a litmus's name and the function
// that makes the litmus. Making a litmus makes its programs, so
// LitmusByName makes only the row it returns.
type entry struct {
	name string
	make func() *Litmus
}

// Registry returns the litmus table, in deterministic order.
func Registry() []*Litmus {
	es := entries()
	out := make([]*Litmus, len(es))
	for i, e := range es {
		out[i] = e.litmus()
	}
	return out
}

func (e entry) litmus() *Litmus {
	l := e.make()
	l.Name = e.name
	return l
}

// entries returns the registry's rows, in order.
func entries() []entry {
	return []entry{
		{"mutex", func() *Litmus {
			return &Litmus{
				Desc: "3 threads x 2 critical sections on one mutex; lost-update and overlap detectors",
				Spec: func() Config { return MutualExclusion(3, 2) },
				Sim:  simMutex(3, 2),
			}
		}},
		{"sem", func() *Litmus {
			return &Litmus{
				Desc: "2 threads x 2 critical sections guarded by P/V on one binary semaphore",
				Spec: func() Config { return SemaphoreMutualExclusion(2, 2) },
				Sim:  simSemMutex(2, 2),
			}
		}},
		{"prodcons", func() *Litmus {
			return &Litmus{
				Desc: "2 producers x 2 items, 1 consumer, capacity-1 bounded buffer (Wait/Signal both directions)",
				Sim:  simProdCons(2, 2, 1),
			}
		}},
		{"alert", func() *Litmus {
			return &Litmus{
				Desc: "AlertWait ended by Alert while a worker contends for the mutex (corrected semantics)",
				Spec: func() Config { return AlertSeizesHeldMutex(spec.VariantFinal) },
				Sim:  simAlert(false),
			}
		}},
		{"alert-broken", func() *Litmus {
			return &Litmus{
				Desc:            "the no-m-nil AlertWait bug: an alerted thread seizes a held mutex (violation expected)",
				ExpectViolation: true,
				Spec:            func() Config { return MutualExclusionAlert(spec.VariantNoMNil, 2, 1) },
				Sim:             simAlert(true),
			}
		}},
		{"rwlock", func() *Litmus {
			return &Litmus{
				Desc: "readers-writer lock: atomic reader fast path, mutex+condition only when a writer is counted; 2 readers, 1 writer",
				Sim:  simRWLock(2),
			}
		}},
		// The spec face of the hand-off litmuses is the unmodified
		// mutex/semaphore spec — hand-off is an implementation policy,
		// and re-exploring an identical spec would prove nothing new —
		// so Spec is nil and all the checking weight is on the sim face:
		// every schedule's linearization trace must still replay through
		// the specification state machine with transfers in the mix.
		{"mutex-handoff", func() *Litmus {
			return &Litmus{
				Desc: "the mutex litmus with direct hand-off: Release transfers the gate, lock bit never clears",
				Sim:  directHandoff(simMutex(3, 2)),
			}
		}},
		{"sem-handoff", func() *Litmus {
			return &Litmus{
				Desc: "the sem litmus with direct hand-off: V gifts its token to a queued P",
				Sim:  directHandoff(simSemMutex(2, 2)),
			}
		}},
		{"csem", func() *Litmus {
			return &Litmus{
				Desc: "counting semaphore from mutex+condition: 3 threads share 1 permit, Acquire waits while none is free, Release Signals after the mutex",
				Sim:  simCSem(1, 3),
			}
		}},
		{"peterson", func() *Litmus {
			return &Litmus{
				Desc: "Peterson's 2-thread mutual exclusion over raw shared words, entry spin via AwaitChange",
				Sim:  simPeterson(2),
			}
		}},
		{"phaser", func() *Litmus {
			return &Litmus{
				Desc: "cyclic barrier from mutex+condition: 3 threads x 2 phases, Broadcast on the last arrival",
				Sim:  simPhaser(3, 2),
			}
		}},
		{"deadline", func() *Litmus {
			return &Litmus{
				Desc: "deadline wait via timer-thread Alert (virtual time): cancel-and-drain epilogue; a late fire must not poison the next wait",
				Sim:  simDeadline(false),
			}
		}},
		{"deadline-broken", func() *Litmus {
			return &Litmus{
				Desc:            "the stale-alert timeout race: cancel without drain (the timer.Stop pattern) lets a late fire poison the next wait (violation expected)",
				ExpectViolation: true,
				Sim:             simDeadline(true),
			}
		}},
		{"monitor", func() *Litmus {
			return &Litmus{
				Desc: "monitor (mutex + bound condition): 2 producers x 1 increment, drainer on count>0; overlap and conservation detectors",
				Sim:  simMonitor(2, 1),
			}
		}},
		{"mpsc", func() *Litmus {
			return &Litmus{
				Desc: "bounded MPSC ring, capacity 1: 2 producers x 2 items, 1 consumer; conservation and per-producer FIFO detectors",
				Sim:  simMPSC(2, 2, 1),
			}
		}},
		{"future", func() *Litmus {
			return &Litmus{
				Desc: "single-assignment future: a deadline-carrying getter and a plain getter race one Set (timer via DeadlineTimer)",
				Sim:  simFuture(),
			}
		}},
		{"latch", func() *Litmus {
			return &Litmus{
				Desc: "one-shot latch: 2 waiters must not pass before the opener's Broadcast",
				Sim:  simLatch(2),
			}
		}},
		{"pool", func() *Litmus {
			return &Litmus{
				Desc: "buffer pool, 1 item: 3 threads Get it and Put it back; Get waits while the stack is empty, Put Signals after the mutex",
				Sim:  simPool(1, 3),
			}
		}},
		// Like the hand-off litmuses, priority scheduling is an
		// implementation policy with no spec face: the checking weight is
		// on conformance replay (boost/restore stamps) and the outcome
		// detectors.
		{"priority-inversion", func() *Litmus {
			return &Litmus{
				Desc: "low/med/high on one processor with time slicing: inheritance boosts the lock holder past the medium-priority spinner",
				Sim:  simPriorityInversion(true),
			}
		}},
		{"priority-inversion-broken", func() *Litmus {
			return &Litmus{
				Desc:            "the same program without priority inheritance: the medium spinner starves the lock holder and the high-priority thread behind it (violation expected)",
				ExpectViolation: true,
				Sim:             simPriorityInversion(false),
			}
		}},
	}
}

// directHandoff returns p with the DirectHandoff World option set.
func directHandoff(p SimProgram) SimProgram {
	p.Opts.DirectHandoff = true
	return p
}

// LitmusByName returns the named litmus, or nil.
func LitmusByName(name string) *Litmus {
	for _, e := range entries() {
		if e.name == name {
			return e.litmus()
		}
	}
	return nil
}

// LitmusNames returns the sorted registry names.
func LitmusNames() []string {
	var out []string
	for _, l := range Registry() {
		out = append(out, l.Name)
	}
	sort.Strings(out)
	return out
}

// simMutex: each thread performs iters critical sections incrementing a
// shared counter with a non-atomic load-work-store — the update a mutex
// exists to protect — plus an in-region occupancy counter that catches
// overlap the moment it happens.
func simMutex(threads, iters int) SimProgram {
	return SimProgram{
		Procs: threads,
		Build: reusable(func(b *builder) func() error {
			m := b.mutex()
			counter, inCS, overlap := b.word(), b.word(), b.word()
			for i := 0; i < threads; i++ {
				b.spawn(fmt.Sprintf("t%d", i+1), func(e *sim.Env) {
					for n := 0; n < iters; n++ {
						m.Acquire(e)
						if e.Add(inCS, 1) != 1 {
							e.Store(overlap, 1)
						}
						v := e.Load(counter)
						e.Work(1)
						e.Store(counter, v+1)
						e.Add(inCS, ^uint64(0))
						m.Release(e)
					}
				})
			}
			total := uint64(threads * iters)
			return func() error {
				if overlap.Peek() != 0 {
					return fmt.Errorf("two threads inside the mutex critical section")
				}
				if got := counter.Peek(); got != total {
					return fmt.Errorf("lost update: counter = %d, want %d", got, total)
				}
				return nil
			}
		}),
	}
}

// simSemMutex is simMutex with P/V on a binary semaphore as the guard.
func simSemMutex(threads, iters int) SimProgram {
	return SimProgram{
		Procs: threads,
		Build: reusable(func(b *builder) func() error {
			s := b.sem()
			counter, inCS, overlap := b.word(), b.word(), b.word()
			for i := 0; i < threads; i++ {
				b.spawn(fmt.Sprintf("t%d", i+1), func(e *sim.Env) {
					for n := 0; n < iters; n++ {
						s.P(e)
						if e.Add(inCS, 1) != 1 {
							e.Store(overlap, 1)
						}
						v := e.Load(counter)
						e.Store(counter, v+1)
						e.Add(inCS, ^uint64(0))
						s.V(e)
					}
				})
			}
			total := uint64(threads * iters)
			return func() error {
				if overlap.Peek() != 0 {
					return fmt.Errorf("two threads inside the P/V critical section")
				}
				if got := counter.Peek(); got != total {
					return fmt.Errorf("lost update: counter = %d, want %d", got, total)
				}
				return nil
			}
		}),
	}
}

// simProdCons is the bounded buffer with a condition per direction; the
// consumer drains exactly producers*items items, so every schedule must
// terminate — a deadlock is a lost wakeup.
func simProdCons(producers, items, capacity int) SimProgram {
	return SimProgram{
		Procs: producers + 1,
		Build: reusable(func(b *builder) func() error {
			m := b.mutex()
			nonEmpty := b.cond()
			nonFull := b.cond()
			queue := b.word()
			total := producers * items
			for i := 0; i < producers; i++ {
				b.spawn(fmt.Sprintf("prod%d", i+1), func(e *sim.Env) {
					for n := 0; n < items; n++ {
						m.Acquire(e)
						for e.Load(queue) == uint64(capacity) {
							nonFull.Wait(e, m)
						}
						e.Add(queue, 1)
						m.Release(e)
						nonEmpty.Signal(e)
					}
				})
			}
			b.spawn("cons", func(e *sim.Env) {
				for got := 0; got < total; got++ {
					m.Acquire(e)
					for e.Load(queue) == 0 {
						nonEmpty.Wait(e, m)
					}
					e.Add(queue, ^uint64(0))
					m.Release(e)
					nonFull.Signal(e)
				}
			})
			return func() error {
				if q := queue.Peek(); q != 0 {
					return fmt.Errorf("%d items left in the buffer after all threads finished", q)
				}
				return nil
			}
		}),
	}
}

// simAlert is the MutualExclusionAlert scenario on the simulator: the
// alertee's critical section is entered through AlertWait's resume, a
// worker takes plain critical sections, an alerter supplies the Alert that
// enables the Raise path. With buggy=true the World runs the no-m-nil
// semantics and some schedule lets the alertee seize the worker's held
// mutex — the violation the first released specification permitted.
func simAlert(buggy bool) SimProgram {
	return SimProgram{
		Procs: 3,
		Opts:  simthreads.WorldOptions{BuggyAlertSeize: buggy},
		Build: reusable(func(b *builder) func() error {
			m := b.mutex()
			c := b.cond()
			inCS, overlap, sawAlert := b.word(), b.word(), b.word()
			enter := func(e *sim.Env) {
				if e.Add(inCS, 1) != 1 {
					e.Store(overlap, 1)
				}
			}
			exit := func(e *sim.Env) { e.Add(inCS, ^uint64(0)) }
			alertee := b.spawn("alertee", func(e *sim.Env) {
				m.Acquire(e)
				//threadsvet:ignore waitloop: single-shot litmus; the conformance schedule observes the Wait-is-a-hint semantics directly
				alerted := c.AlertWait(e, m)
				enter(e)
				e.Work(2)
				exit(e)
				m.Release(e)
				if alerted {
					e.Store(sawAlert, 1)
				}
			})
			b.spawn("worker", func(e *sim.Env) {
				m.Acquire(e)
				enter(e)
				e.Work(2)
				exit(e)
				m.Release(e)
			})
			b.spawn("alerter", func(e *sim.Env) {
				b.w.Alert(e, alertee)
			})
			return func() error {
				if overlap.Peek() != 0 {
					return fmt.Errorf("alertee and worker overlapped inside the mutex critical section")
				}
				if sawAlert.Peek() == 0 {
					return fmt.Errorf("the alert was never delivered")
				}
				return nil
			}
		}),
	}
}

// simPeterson is Peterson's classic 2-thread mutual exclusion built from
// nothing but raw shared words — no Threads primitives at all, so it
// exercises the explorer's handling of algorithms below the paper's
// interface. The simulated memory is sequentially consistent, which is
// exactly the model Peterson's algorithm is correct under; the entry
// protocol's spin ("while flag[j] and turn == j") uses AwaitChange on
// both words at once so the decision tree stays finite. Detectors are the
// mutex litmus's: region occupancy and a load-work-store counter.
func simPeterson(iters int) SimProgram {
	return SimProgram{
		Procs: 2,
		Build: reusable(func(b *builder) func() error {
			flag := b.wordSlice(2)
			turn := b.word()
			counter, inCS, overlap := b.word(), b.word(), b.word()
			for i := 0; i < 2; i++ {
				i := i
				j := 1 - i
				b.spawn(fmt.Sprintf("t%d", i+1), func(e *sim.Env) {
					for n := 0; n < iters; n++ {
						e.Store(&flag[i], 1)
						e.Store(turn, uint64(j))
						for {
							fj := e.Load(&flag[j])
							if fj == 0 {
								break
							}
							tv := e.Load(turn)
							if tv != uint64(j) {
								break
							}
							e.AwaitChange(
								sim.WordVal{W: &flag[j], Old: fj},
								sim.WordVal{W: turn, Old: tv},
							)
						}
						if e.Add(inCS, 1) != 1 {
							e.Store(overlap, 1)
						}
						v := e.Load(counter)
						e.Work(1)
						e.Store(counter, v+1)
						e.Add(inCS, ^uint64(0))
						e.Store(&flag[i], 0)
					}
				})
			}
			total := uint64(2 * iters)
			return func() error {
				if overlap.Peek() != 0 {
					return fmt.Errorf("both threads inside Peterson's critical section")
				}
				if got := counter.Peek(); got != total {
					return fmt.Errorf("lost update: counter = %d, want %d", got, total)
				}
				return nil
			}
		}),
	}
}

// simPhaser is a cyclic barrier (a phaser) derived from one mutex and one
// condition: each arrival increments a count under the mutex; the last
// arrival of a generation resets the count, advances the generation and
// Broadcasts, while the others Wait until the generation moves. The
// detector is the barrier property itself: a thread observing fewer than
// `parties` arrivals for phase p after passing the phase-p barrier means
// someone got through before everyone arrived.
func simPhaser(parties, phases int) SimProgram {
	return SimProgram{
		Procs: parties,
		Build: reusable(func(b *builder) func() error {
			m := b.mutex()
			cv := b.cond()
			count, gen, bad := b.word(), b.word(), b.word()
			arrived := b.wordSlice(phases)
			arrive := func(e *sim.Env) {
				m.Acquire(e)
				g := e.Load(gen)
				if e.Add(count, 1) == uint64(parties) {
					e.Store(count, 0)
					e.Add(gen, 1)
					m.Release(e)
					cv.Broadcast(e)
					return
				}
				for e.Load(gen) == g {
					cv.Wait(e, m)
				}
				m.Release(e)
			}
			for i := 0; i < parties; i++ {
				b.spawn(fmt.Sprintf("t%d", i+1), func(e *sim.Env) {
					for p := 0; p < phases; p++ {
						e.Add(&arrived[p], 1)
						arrive(e)
						if e.Load(&arrived[p]) != uint64(parties) {
							e.Store(bad, 1)
						}
					}
				})
			}
			return func() error {
				if bad.Peek() != 0 {
					return fmt.Errorf("a thread passed a phase barrier before all %d parties arrived", parties)
				}
				if g := gen.Peek(); g != uint64(phases) {
					return fmt.Errorf("generation %d at quiescence, want %d", g, phases)
				}
				if c := count.Peek(); c != 0 {
					return fmt.Errorf("arrival count %d at quiescence, want 0", c)
				}
				return nil
			}
		}),
	}
}

// simRWLock mirrors derived.RWLock step for step: one state word holds the
// reader count in its low 32 bits and the writers (pending or active) above
// them, so a reader with no writer counted enters and leaves with one Add
// each, and the mutex and condition carry only the conflicts. The two
// misuse checks are left out, as no thread here misuses the lock. It is also
// the registry's demonstration that new primitives built on the paper's
// interface get schedule-explored by adding a table entry.
func simRWLock(readers int) SimProgram {
	const readerMask, writerUnit = 1<<32 - 1, 1 << 32
	return SimProgram{
		Procs: readers + 1,
		Build: reusable(func(b *builder) func() error {
			m := b.mutex()
			changed := b.cond()
			state, writing := b.word(), b.word()          // writing is guarded by m
			inR, inW, bad := b.word(), b.word(), b.word() // detectors
			lastReader := func(s uint64) bool { return s&readerMask == 0 && s >= writerUnit }
			wakeWriters := func(e *sim.Env) {
				m.Acquire(e)
				m.Release(e)
				changed.Broadcast(e)
			}
			for i := 0; i < readers; i++ {
				b.spawn(fmt.Sprintf("r%d", i+1), func(e *sim.Env) {
					// RLock: fast path, else back out and wait under m.
					if e.Add(state, 1) >= writerUnit {
						if lastReader(e.Add(state, ^uint64(0))) {
							wakeWriters(e)
						}
						m.Acquire(e)
						for e.Load(state) >= writerUnit {
							changed.Wait(e, m)
						}
						e.Add(state, 1)
						m.Release(e)
					}
					// Read region: no writer may be inside.
					e.Add(inR, 1)
					if e.Load(inW) != 0 {
						e.Store(bad, 1)
					}
					e.Add(inR, ^uint64(0))
					// RUnlock.
					if lastReader(e.Add(state, ^uint64(0))) {
						wakeWriters(e)
					}
				})
			}
			b.spawn("writer", func(e *sim.Env) {
				m.Acquire(e)
				e.Add(state, writerUnit)
				for e.Load(writing) != 0 || e.Load(state)&readerMask != 0 {
					changed.Wait(e, m)
				}
				e.Store(writing, 1)
				m.Release(e)
				// Write region: no reader may be inside.
				e.Store(inW, 1)
				if e.Load(inR) != 0 {
					e.Store(bad, 1)
				}
				e.Store(inW, 0)
				// Unlock.
				m.Acquire(e)
				e.Store(writing, 0)
				e.Add(state, ^uint64(writerUnit-1))
				m.Release(e)
				changed.Broadcast(e)
			})
			return func() error {
				if bad.Peek() != 0 {
					return fmt.Errorf("reader and writer overlapped")
				}
				if s := state.Peek(); s != 0 {
					return fmt.Errorf("state word %#x at quiescence, want 0", s)
				}
				return nil
			}
		}),
	}
}
