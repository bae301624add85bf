package simthreads

import (
	"strings"
	"testing"

	"threads/internal/sim"
)

// TestE1UncontendedPairIsFiveInstructions reproduces the paper's headline
// implementation number: "an Acquire-Release pair executes a total of 5
// instructions, taking 10 microseconds on a MicroVAX II".
func TestE1UncontendedPairIsFiveInstructions(t *testing.T) {
	w, k := NewWorld(sim.Config{Procs: 1})
	m := w.NewMutex()
	var pair uint64
	k.Spawn("solo", func(e *sim.Env) {
		// Warm nothing: the fast path has no warmup. Measure one pair.
		before := e.Instret()
		m.Acquire(e)
		m.Release(e)
		pair = e.Instret() - before
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if pair != 5 {
		t.Fatalf("uncontended Acquire-Release pair = %d instructions, want 5", pair)
	}
	micros := float64(pair) * sim.MicroVAXII().MicrosPerInstr
	if micros != 10 {
		t.Fatalf("pair = %v µs, want 10 µs", micros)
	}
	if w.Stats.AcquireFast != 1 || w.Stats.AcquireNub != 0 {
		t.Fatalf("fast path not taken: %+v", w.Stats)
	}
}

// TestE1SemaphorePairMatchesMutex: P/V is the identical mechanism, so the
// uncontended pair costs the same 5 instructions.
func TestE1SemaphorePairMatchesMutex(t *testing.T) {
	w, k := NewWorld(sim.Config{Procs: 1})
	s := w.NewSemaphore()
	var pair uint64
	k.Spawn("solo", func(e *sim.Env) {
		before := e.Instret()
		s.P(e)
		s.V(e)
		pair = e.Instret() - before
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if pair != 5 {
		t.Fatalf("uncontended P-V pair = %d instructions, want 5", pair)
	}
}

func TestSimMutexMutualExclusion(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		w, k := NewWorld(sim.Config{
			Procs: 4, Seed: seed, Policy: sim.PolicyRandom, MaxSteps: 2_000_000,
		})
		m := w.NewMutex()
		var counter, inside, overlap sim.Word
		for i := 0; i < 4; i++ {
			k.Spawn("", func(e *sim.Env) {
				for n := 0; n < 30; n++ {
					m.Acquire(e)
					if v := e.Add(&inside, 1); v != 1 {
						e.Add(&overlap, 1)
					}
					e.Add(&counter, 1)
					e.Add(&inside, ^uint64(0))
					m.Release(e)
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if overlap.Peek() != 0 {
			t.Fatalf("seed %d: %d overlapping critical sections", seed, overlap.Peek())
		}
		if counter.Peek() != 120 {
			t.Fatalf("seed %d: counter = %d, want 120", seed, counter.Peek())
		}
	}
}

func TestSimMutexBlocksAndHandsOff(t *testing.T) {
	w, k := NewWorld(sim.Config{Procs: 2, MaxSteps: 100_000})
	m := w.NewMutex()
	var order []string
	k.Spawn("first", func(e *sim.Env) {
		m.Acquire(e)
		e.Work(50) // hold long enough that the second must block
		order = append(order, "first-release")
		m.Release(e)
	})
	k.Spawn("second", func(e *sim.Env) {
		e.Work(5)
		m.Acquire(e) // must block in the Nub
		order = append(order, "second-acquired")
		m.Release(e)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "first-release" || order[1] != "second-acquired" {
		t.Fatalf("order = %v", order)
	}
	if w.Stats.AcquireNub == 0 || w.Stats.AcquirePark == 0 {
		t.Fatalf("second acquire did not take the Nub path: %+v", w.Stats)
	}
}

func TestSimWaitSignal(t *testing.T) {
	w, k := NewWorld(sim.Config{Procs: 2, MaxSteps: 500_000})
	m := w.NewMutex()
	c := w.NewCondition()
	var ready sim.Word
	var observed uint64
	k.Spawn("waiter", func(e *sim.Env) {
		m.Acquire(e)
		for e.Load(&ready) == 0 {
			c.Wait(e, m)
		}
		observed = e.Load(&ready)
		m.Release(e)
	})
	k.Spawn("setter", func(e *sim.Env) {
		e.Work(40)
		m.Acquire(e)
		e.Store(&ready, 7)
		m.Release(e)
		c.Signal(e)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if observed != 7 {
		t.Fatalf("waiter observed %d, want 7", observed)
	}
	// The finished run ended every commitment; a standing one is reported
	// naming its condition.
	if err := w.CheckConditions(); err != nil {
		t.Fatal(err)
	}
	c.committed.Poke(1)
	if err := w.CheckConditions(); err == nil || !strings.Contains(err.Error(), "condition c1 ") {
		t.Fatalf("a standing commitment on c1 was reported as %v", err)
	}
}

// TestSimNoLostWakeup sweeps seeds over the wakeup-waiting window (E4): the
// signal may land anywhere between the eventcount read and the Block, and
// the waiter must never sleep forever.
func TestSimNoLostWakeup(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		w, k := NewWorld(sim.Config{
			Procs: 2, Seed: seed, Policy: sim.PolicyRandom, MaxSteps: 200_000,
		})
		m := w.NewMutex()
		c := w.NewCondition()
		var ready sim.Word
		k.Spawn("waiter", func(e *sim.Env) {
			m.Acquire(e)
			for e.Load(&ready) == 0 {
				c.Wait(e, m)
			}
			m.Release(e)
		})
		k.Spawn("signaller", func(e *sim.Env) {
			m.Acquire(e)
			e.Store(&ready, 1)
			m.Release(e)
			c.Signal(e)
		})
		if err := k.Run(); err != nil {
			t.Fatalf("seed %d: %v (lost wakeup)", seed, err)
		}
	}
}

// TestSimSignalMayUnblockSeveral drives many waiters into the race window
// and checks that, across seeds, at least one Signal releases more than one
// thread (the elided-Block path) — the reason Signal's postcondition cannot
// be strengthened (E3).
func TestSimSignalMayUnblockSeveral(t *testing.T) {
	multiUnblockSeen := false
	for seed := int64(0); seed < 300 && !multiUnblockSeen; seed++ {
		w, k := NewWorld(sim.Config{
			Procs: 4, Seed: seed, Policy: sim.PolicyRandom, MaxSteps: 500_000,
		})
		m := w.NewMutex()
		c := w.NewCondition()
		var ready sim.Word
		const waiters = 3
		for i := 0; i < waiters; i++ {
			k.Spawn("waiter", func(e *sim.Env) {
				m.Acquire(e)
				for e.Load(&ready) == 0 {
					c.Wait(e, m)
				}
				m.Release(e)
			})
		}
		k.Spawn("signaller", func(e *sim.Env) {
			e.Work(10)
			m.Acquire(e)
			e.Store(&ready, 1)
			m.Release(e)
			c.Signal(e)
			// Flush any waiters the Signal did not release.
			for {
				m.Acquire(e)
				n := c.Waiters()
				m.Release(e)
				if n == 0 {
					break
				}
				c.Broadcast(e)
				e.Work(5)
			}
		})
		if err := k.Run(); err != nil {
			// Some stragglers may still be mid-protocol when the flush
			// loop last looked; a deadlock here would be a real bug.
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The signal "unblocked several" if at least one waiter took the
		// elided path (it was released by the same eventcount advance
		// that released the popped waiter).
		if w.Stats.WaitElided >= 1 && w.Stats.SignalWoke >= 1 {
			multiUnblockSeen = true
		}
	}
	if !multiUnblockSeen {
		t.Fatal("no seed exhibited a Signal releasing several threads (E3)")
	}
}

func TestSimBroadcastReleasesAll(t *testing.T) {
	w, k := NewWorld(sim.Config{Procs: 2, MaxSteps: 500_000})
	m := w.NewMutex()
	c := w.NewCondition()
	var gate sim.Word
	var resumed uint64
	const waiters = 6
	for i := 0; i < waiters; i++ {
		k.Spawn("waiter", func(e *sim.Env) {
			m.Acquire(e)
			for e.Load(&gate) == 0 {
				c.Wait(e, m)
			}
			resumed++
			m.Release(e)
		})
	}
	k.Spawn("broadcaster", func(e *sim.Env) {
		// Let all the waiters block first.
		e.Work(2000)
		m.Acquire(e)
		e.Store(&gate, 1)
		m.Release(e)
		c.Broadcast(e)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if resumed != waiters {
		t.Fatalf("resumed %d of %d waiters", resumed, waiters)
	}
}

func TestSimSemaphoreInterruptHandoff(t *testing.T) {
	w, k := NewWorld(sim.Config{Procs: 2, MaxSteps: 200_000})
	s := w.NewSemaphore()
	var handled uint64
	k.Spawn("handler", func(e *sim.Env) {
		s.P(e) // consume the initial availability
		for i := 0; i < 5; i++ {
			s.P(e) // wait for "interrupt"
			handled++
		}
	})
	k.Spawn("device", func(e *sim.Env) {
		for i := 0; i < 5; i++ {
			e.Work(50)
			s.V(e)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if handled != 5 {
		t.Fatalf("handled %d interrupts, want 5", handled)
	}
}

func TestSimAlertWaitRaises(t *testing.T) {
	w, k := NewWorld(sim.Config{Procs: 2, MaxSteps: 200_000})
	m := w.NewMutex()
	c := w.NewCondition()
	var gotAlert bool
	var target *sim.T
	target = k.Spawn("waiter", func(e *sim.Env) {
		m.Acquire(e)
		gotAlert = c.AlertWait(e, m)
		if !m.Held() {
			t.Error("mutex not held after AlertWait")
		}
		m.Release(e)
	})
	k.Spawn("alerter", func(e *sim.Env) {
		e.Work(200) // let the waiter block
		w.Alert(e, target)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !gotAlert {
		t.Fatal("AlertWait did not report the alert")
	}
	if w.AlertPending(target) {
		t.Fatal("alert flag not consumed by the Alerted return")
	}
}

// TestSimAlertedThreadDoesNotAbsorbSignal is E7b at the implementation
// level, across seeds: after t1 is alerted out of AlertWait, one Signal
// must still release the live plain waiter.
func TestSimAlertedThreadDoesNotAbsorbSignal(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		w, k := NewWorld(sim.Config{
			Procs: 3, Seed: seed, Policy: sim.PolicyRandom, MaxSteps: 500_000,
		})
		m := w.NewMutex()
		c := w.NewCondition()
		var ready sim.Word
		var alertee *sim.T
		alertee = k.Spawn("alertee", func(e *sim.Env) {
			m.Acquire(e)
			for e.Load(&ready) == 0 {
				if c.AlertWait(e, m) {
					break // alerted
				}
			}
			m.Release(e)
		})
		k.Spawn("live-waiter", func(e *sim.Env) {
			m.Acquire(e)
			for e.Load(&ready) == 0 {
				c.Wait(e, m)
			}
			m.Release(e)
		})
		k.Spawn("driver", func(e *sim.Env) {
			e.Work(500) // let both block
			w.Alert(e, alertee)
			e.Work(500) // let the alertee depart
			m.Acquire(e)
			e.Store(&ready, 1)
			m.Release(e)
			c.Signal(e) // must reach the live waiter
			// Defensive flush for schedules where the alertee raced.
			for i := 0; i < 10; i++ {
				e.Work(200)
				c.Broadcast(e)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatalf("seed %d: %v (signal absorbed by departed thread?)", seed, err)
		}
		if err := w.CheckConditions(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestSimAlertPRaisesAndLeavesSemaphoreUntouched(t *testing.T) {
	w, k := NewWorld(sim.Config{Procs: 2, MaxSteps: 200_000})
	s := w.NewSemaphore()
	var gotAlert bool
	var target *sim.T
	target = k.Spawn("waiter", func(e *sim.Env) {
		s.P(e) // make it unavailable so AlertP blocks
		gotAlert = s.AlertP(e)
	})
	k.Spawn("alerter", func(e *sim.Env) {
		e.Work(200)
		w.Alert(e, target)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !gotAlert {
		t.Fatal("AlertP did not report the alert")
	}
	if s.Available() {
		t.Fatal("AlertP's Alerted path changed the semaphore (UNCHANGED [s] violated)")
	}
}

func TestSimTestAlert(t *testing.T) {
	w, k := NewWorld(sim.Config{Procs: 2, MaxSteps: 100_000})
	var results []bool
	var target *sim.T
	target = k.Spawn("t", func(e *sim.Env) {
		e.Work(500) // wait for the alert to arrive
		results = append(results, w.TestAlert(e), w.TestAlert(e))
	})
	k.Spawn("alerter", func(e *sim.Env) {
		w.Alert(e, target)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || !results[0] || results[1] {
		t.Fatalf("TestAlert sequence = %v, want [true false]", results)
	}
}

// TestSimFastPathAvoidsNub (E2 shape): a single thread's operations never
// enter the Nub; heavy contention does.
func TestSimFastPathAvoidsNub(t *testing.T) {
	w, k := NewWorld(sim.Config{Procs: 1})
	m := w.NewMutex()
	k.Spawn("solo", func(e *sim.Env) {
		for i := 0; i < 100; i++ {
			m.Acquire(e)
			m.Release(e)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if w.Stats.AcquireNub != 0 || w.Stats.ReleaseNub != 0 {
		t.Fatalf("uncontended run entered the Nub: %+v", w.Stats)
	}
	if w.Stats.AcquireFast != 100 || w.Stats.ReleaseFast != 100 {
		t.Fatalf("fast-path counts wrong: %+v", w.Stats)
	}

	w2, k2 := NewWorld(sim.Config{Procs: 4, Seed: 1, Policy: sim.PolicyRandom, MaxSteps: 2_000_000})
	m2 := w2.NewMutex()
	for i := 0; i < 4; i++ {
		k2.Spawn("", func(e *sim.Env) {
			for n := 0; n < 50; n++ {
				m2.Acquire(e)
				e.Work(20) // long critical section forces contention
				m2.Release(e)
			}
		})
	}
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	if w2.Stats.AcquireNub == 0 {
		t.Fatal("contended run never entered the Nub")
	}
}

// TestCoroutineSingleProcessor: the paper's other implementation "runs
// within any single process on a normal Unix system ... using a co-routine
// mechanism for blocking one thread and resuming another." With one
// simulated processor the kernel is exactly that coroutine scheduler, and
// every protocol must still work.
func TestCoroutineSingleProcessor(t *testing.T) {
	w, k := NewWorld(sim.Config{Procs: 1, Quantum: 50, MaxSteps: 5_000_000})
	m := w.NewMutex()
	c := w.NewCondition()
	s := w.NewSemaphore()
	var queue, handled sim.Word
	const items = 40
	k.Spawn("producer", func(e *sim.Env) {
		for i := 0; i < items; i++ {
			m.Acquire(e)
			e.Add(&queue, 1)
			m.Release(e)
			c.Signal(e)
		}
	})
	k.Spawn("consumer", func(e *sim.Env) {
		for got := 0; got < items; got++ {
			m.Acquire(e)
			for e.Load(&queue) == 0 {
				c.Wait(e, m)
			}
			e.Add(&queue, ^uint64(0))
			m.Release(e)
		}
		s.V(e) // hand off to the semaphore waiter below
	})
	k.Spawn("sem-waiter", func(e *sim.Env) {
		s.P(e) // initial availability
		s.P(e) // waits for the consumer's V
		e.Add(&handled, 1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if handled.Peek() != 1 {
		t.Fatal("semaphore hand-off failed under coroutine scheduling")
	}
}
