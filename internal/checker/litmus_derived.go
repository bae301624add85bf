package checker

import (
	"fmt"

	"threads/internal/sim"
)

// The builders in this file are the sim faces of the derived/ toolkit:
// each expresses a derived primitive's protocol with the simulated
// paper primitives, so registering it here is what gives the primitive
// explorer coverage (see primitives.go for the wiring contract).

// simMonitor is derived.Monitor's shape: a guarded counter plus one bound
// condition. Producers increment inside the monitor; a drainer waits on the
// predicate count > 0 and consumes. The detectors are mutual exclusion on
// the guarded state (monitor regions must not overlap) and conservation
// (every increment is drained).
func simMonitor(producers, iters int) SimProgram {
	return SimProgram{
		Procs: producers + 1,
		Build: reusable(func(b *builder) func() error {
			m := b.mutex()
			nonZero := b.cond()
			count, inCS, overlap, drained := b.word(), b.word(), b.word(), b.word()
			enter := func(e *sim.Env) {
				if e.Add(inCS, 1) != 1 {
					e.Store(overlap, 1)
				}
			}
			exit := func(e *sim.Env) { e.Add(inCS, ^uint64(0)) }
			for i := 0; i < producers; i++ {
				b.spawn(fmt.Sprintf("prod%d", i+1), func(e *sim.Env) {
					for n := 0; n < iters; n++ {
						m.Acquire(e)
						enter(e)
						e.Add(count, 1)
						exit(e)
						m.Release(e)
						nonZero.Signal(e)
					}
				})
			}
			total := uint64(producers * iters)
			b.spawn("drainer", func(e *sim.Env) {
				taken := uint64(0)
				m.Acquire(e)
				for taken < total {
					for e.Load(count) == 0 {
						nonZero.Wait(e, m)
					}
					enter(e)
					taken += e.Load(count)
					e.Store(count, 0)
					exit(e)
				}
				m.Release(e)
				e.Store(drained, taken)
			})
			return func() error {
				if overlap.Peek() != 0 {
					return fmt.Errorf("monitor regions overlapped")
				}
				if got := drained.Peek(); got != total {
					return fmt.Errorf("drained %d increments, want %d", got, total)
				}
				return nil
			}
		}),
	}
}

// simMPSC is derived.Ring's protocol: a bounded circular buffer with a
// condition per direction, multiple producers, one consumer. The detectors
// are conservation (the consumed sum identifies lost or duplicated items)
// and per-producer FIFO (each producer's values must arrive in its push
// order — the property the ring's single head/tail discipline provides).
func simMPSC(producers, items, capacity int) SimProgram {
	return SimProgram{
		Procs: producers + 1,
		Build: reusable(func(b *builder) func() error {
			m := b.mutex()
			nonEmpty := b.cond()
			nonFull := b.cond()
			buf := b.wordSlice(capacity)
			head, n := b.word(), b.word() // ring state, guarded by m
			sum, fifoBad := b.word(), b.word()
			for i := 0; i < producers; i++ {
				base := uint64((i + 1) * 100)
				b.spawn(fmt.Sprintf("prod%d", i+1), func(e *sim.Env) {
					for v := uint64(0); v < uint64(items); v++ {
						m.Acquire(e)
						for e.Load(n) == uint64(capacity) {
							nonFull.Wait(e, m)
						}
						slot := (e.Load(head) + e.Load(n)) % uint64(capacity)
						e.Store(&buf[slot], base+v)
						e.Add(n, 1)
						m.Release(e)
						nonEmpty.Signal(e)
					}
				})
			}
			lastSeen := b.wordSlice(producers)
			b.spawn("cons", func(e *sim.Env) {
				for got := 0; got < producers*items; got++ {
					m.Acquire(e)
					for e.Load(n) == 0 {
						nonEmpty.Wait(e, m)
					}
					h := e.Load(head)
					v := e.Load(&buf[h])
					e.Store(&buf[h], 0)
					e.Store(head, (h+1)%uint64(capacity))
					e.Add(n, ^uint64(0))
					m.Release(e)
					nonFull.Signal(e)
					e.Add(sum, v)
					who := int(v/100) - 1
					seq := v%100 + 1 // 1-based so "nothing seen" is 0
					if seq <= e.Load(&lastSeen[who]) {
						e.Store(fifoBad, 1)
					}
					e.Store(&lastSeen[who], seq)
				}
			})
			var want uint64
			for i := 0; i < producers; i++ {
				for v := 0; v < items; v++ {
					want += uint64((i+1)*100 + v)
				}
			}
			return func() error {
				if fifoBad.Peek() != 0 {
					return fmt.Errorf("per-producer FIFO order broken")
				}
				if got := sum.Peek(); got != want {
					return fmt.Errorf("consumed sum %d, want %d (item lost or duplicated)", got, want)
				}
				if left := n.Peek(); left != 0 {
					return fmt.Errorf("%d items left in the ring at quiescence", left)
				}
				return nil
			}
		}),
	}
}

// simFuture is derived.Future's protocol — a single-assignment cell with
// Broadcast on Set and an alertable Get — plus the timeout composition the
// type documents: one getter carries a deadline (a DeadlineTimer), the
// other waits indefinitely. Detectors: both getters that complete must see
// the set value, and the alerted getter must not have consumed anyone
// else's wakeup.
func simFuture() SimProgram {
	return SimProgram{
		Procs: 3,
		Build: reusable(func(b *builder) func() error {
			m := b.mutex()
			set := b.cond()
			dt := b.timer()
			done, value := b.word(), b.word() // future state, guarded by m
			got1, got2, bad := b.word(), b.word(), b.word()
			deadlineGetter := b.spawn("getterD", func(e *sim.Env) {
				m.Acquire(e)
				alerted := false
				for e.Load(done) == 0 {
					if set.AlertWait(e, m) {
						alerted = true
						break
					}
				}
				if !alerted {
					if v := e.Load(value); v != 7 {
						e.Store(bad, 1)
					}
					e.Store(got1, 1)
				}
				m.Release(e)
				dt.CancelAndDrain(e)
			})
			b.spawn("getter", func(e *sim.Env) {
				m.Acquire(e)
				for e.Load(done) == 0 {
					set.Wait(e, m)
				}
				if v := e.Load(value); v != 7 {
					e.Store(bad, 1)
				}
				m.Release(e)
				e.Store(got2, 1)
			})
			b.spawn("setter", func(e *sim.Env) {
				dt.Fire(e, deadlineGetter)
				m.Acquire(e)
				e.Store(value, 7)
				e.Store(done, 1)
				m.Release(e)
				set.Broadcast(e)
			})
			return func() error {
				if bad.Peek() != 0 {
					return fmt.Errorf("a getter observed the wrong value")
				}
				if got2.Peek() == 0 {
					return fmt.Errorf("the plain getter never completed")
				}
				return nil
			}
		}),
	}
}

// simLatch is derived.Latch's protocol: a one-shot gate opened by
// Broadcast. openers CountDown-style threads open it once; waiters must
// not pass while it is closed.
func simLatch(waiters int) SimProgram {
	return SimProgram{
		Procs: waiters + 1,
		Build: reusable(func(b *builder) func() error {
			m := b.mutex()
			opened := b.cond()
			open, passedEarly, passed := b.word(), b.word(), b.word()
			for i := 0; i < waiters; i++ {
				b.spawn(fmt.Sprintf("w%d", i+1), func(e *sim.Env) {
					m.Acquire(e)
					for e.Load(open) == 0 {
						opened.Wait(e, m)
					}
					m.Release(e)
					if e.Load(open) == 0 {
						e.Store(passedEarly, 1)
					}
					e.Add(passed, 1)
				})
			}
			b.spawn("opener", func(e *sim.Env) {
				m.Acquire(e)
				e.Store(open, 1)
				m.Release(e)
				opened.Broadcast(e)
			})
			return func() error {
				if passedEarly.Peek() != 0 {
					return fmt.Errorf("a waiter passed the latch before it opened")
				}
				if got := passed.Peek(); got != uint64(waiters) {
					return fmt.Errorf("%d waiters passed, want %d (lost wakeup)", got, waiters)
				}
				return nil
			}
		}),
	}
}

// simCSem mirrors derived.CountingSemaphore step for step: one permit word
// guarded by one mutex, Acquire waiting on one condition while the word is
// zero, and Release adding under the mutex and Signalling after releasing
// it. Each thread takes a permit, holds it across a step and gives it back.
// The detectors are the abstract ones: never more than permits holders at
// once, and the word back at permits at quiescence; a lost wakeup leaves a
// thread waiting forever, which the explorer reports as a deadlock.
// AlertAcquire is left out, as no thread here is alerted.
func simCSem(permits, threads int) SimProgram {
	return SimProgram{
		Procs: threads,
		Build: reusable(func(b *builder) func() error {
			m := b.mutex()
			nonZero := b.cond()
			free := b.word() // the permit count, guarded by m
			free.Poke(uint64(permits))
			held, overlap := b.word(), b.word() // detectors
			for i := 0; i < threads; i++ {
				b.spawn(fmt.Sprintf("t%d", i+1), func(e *sim.Env) {
					// Acquire.
					m.Acquire(e)
					for e.Load(free) == 0 {
						nonZero.Wait(e, m)
					}
					e.Add(free, ^uint64(0))
					m.Release(e)
					if e.Add(held, 1) > uint64(permits) {
						e.Store(overlap, 1)
					}
					e.Work(1)
					e.Add(held, ^uint64(0))
					// Release.
					m.Acquire(e)
					e.Add(free, 1)
					m.Release(e)
					nonZero.Signal(e)
				})
			}
			return func() error {
				if overlap.Peek() != 0 {
					return fmt.Errorf("more than %d threads hold a permit", permits)
				}
				if f := free.Peek(); f != uint64(permits) {
					return fmt.Errorf("%d permits free at quiescence, want %d (permit granted twice or lost)", f, permits)
				}
				return nil
			}
		}),
	}
}

// simPool mirrors derived.Pool's Get and Put step for step: a stack of free
// items and its length, guarded by one mutex; Get waits on one condition
// while the stack is empty and then pops, and Put pushes and Signals after
// releasing the mutex. Each thread gets an item, holds it across a step and
// puts it back. The detectors: no item is held by two threads at once, and
// at quiescence every item is back on the stack exactly once; a lost
// wakeup leaves a thread waiting forever, which the explorer reports as a
// deadlock.
func simPool(items, threads int) SimProgram {
	return SimProgram{
		Procs: threads,
		Build: reusable(func(b *builder) func() error {
			m := b.mutex()
			freed := b.cond()
			stack := b.wordSlice(items) // item IDs 1..items, guarded by m
			n := b.word()               // the stack's length, guarded by m
			for i := range stack {
				stack[i].Poke(uint64(i + 1))
			}
			n.Poke(uint64(items))
			holders := b.wordSlice(items + 1) // detectors, by item ID
			shared := b.word()
			for i := 0; i < threads; i++ {
				b.spawn(fmt.Sprintf("t%d", i+1), func(e *sim.Env) {
					// Get.
					m.Acquire(e)
					for e.Load(n) == 0 {
						freed.Wait(e, m)
					}
					top := e.Load(n) - 1
					item := e.Load(&stack[top])
					e.Store(n, top)
					m.Release(e)
					if e.Add(&holders[item], 1) != 1 {
						e.Store(shared, 1)
					}
					e.Work(1)
					e.Add(&holders[item], ^uint64(0))
					// Put.
					m.Acquire(e)
					top = e.Load(n)
					e.Store(&stack[top], item)
					e.Store(n, top+1)
					m.Release(e)
					freed.Signal(e)
				})
			}
			onStack := make([]bool, items+1) // the check's, by item ID
			return func() error {
				if shared.Peek() != 0 {
					return fmt.Errorf("an item was held by two threads at once")
				}
				if got := n.Peek(); got != uint64(items) {
					return fmt.Errorf("%d items on the stack at quiescence, want %d", got, items)
				}
				clear(onStack)
				for i := range stack {
					id := stack[i].Peek()
					if id == 0 || id > uint64(items) || onStack[id] {
						return fmt.Errorf("stack slot %d holds item %d at quiescence: an item is missing or on the stack twice", i, id)
					}
					onStack[id] = true
				}
				return nil
			}
		}),
	}
}
