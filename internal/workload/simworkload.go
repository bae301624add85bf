package workload

import (
	"threads/internal/baselines"
	"threads/internal/sim"
	"threads/internal/simthreads"
)

// SimContentionConfig parameterizes an instruction-accurate contention run
// on the simulated Firefly.
type SimContentionConfig struct {
	Procs   int
	Threads int
	Iters   int // critical sections per thread
	CSWork  int // instructions inside the critical section
	Think   int // instructions outside
	Seed    int64
}

// SimContentionResult reports a simulated contention run.
type SimContentionResult struct {
	Stats    simthreads.Stats
	Makespan uint64 // parallel running time in instructions
	Micros   float64
	Steps    uint64 // total instructions executed
	// Utilization is each processor's busy fraction of the makespan.
	Utilization []float64
}

// FastPathRate returns the fraction of Acquires that stayed in user code
// (no Nub call) — experiment E2's dependent variable.
func (r SimContentionResult) FastPathRate() float64 {
	total := r.Stats.AcquireFast + r.Stats.AcquireNub
	if total == 0 {
		return 1
	}
	return float64(r.Stats.AcquireFast) / float64(total)
}

// SimMutexContention runs the contention workload on the simulator and
// returns instruction-level statistics.
func SimMutexContention(cfg SimContentionConfig) (SimContentionResult, error) {
	w, k := simthreads.NewWorld(sim.Config{
		Procs:    cfg.Procs,
		Seed:     cfg.Seed,
		Quantum:  10_000,
		MaxSteps: 200_000_000,
	})
	m := w.NewMutex()
	for i := 0; i < cfg.Threads; i++ {
		k.Spawn("", func(e *sim.Env) {
			for n := 0; n < cfg.Iters; n++ {
				m.Acquire(e)
				e.Work(uint64(cfg.CSWork))
				m.Release(e)
				e.Work(uint64(cfg.Think))
			}
		})
	}
	if err := k.Run(); err != nil {
		return SimContentionResult{}, err
	}
	return SimContentionResult{
		Stats:       w.Stats,
		Makespan:    k.Makespan(),
		Micros:      k.MakespanMicros(),
		Steps:       k.Steps(),
		Utilization: k.Utilization(),
	}, nil
}

// SimPCConfig parameterizes the simulated bounded-buffer workload.
type SimPCConfig struct {
	Procs            int
	Producers        int
	Consumers        int
	ItemsPerProducer int
	Capacity         int
	Work             int // instructions per item outside the monitor
	Seed             int64
}

// SimPCResult reports a simulated producer-consumer run.
type SimPCResult struct {
	Stats    simthreads.Stats
	Makespan uint64
	Micros   float64
	Items    int
}

// ItemsPerSecond converts to items per simulated second.
func (r SimPCResult) ItemsPerSecond() float64 {
	if r.Micros <= 0 {
		return 0
	}
	return float64(r.Items) / (r.Micros / 1e6)
}

// SimProducerConsumer runs the bounded-buffer workload on the simulator.
func SimProducerConsumer(cfg SimPCConfig) (SimPCResult, error) {
	w, k := simthreads.NewWorld(sim.Config{
		Procs:    cfg.Procs,
		Seed:     cfg.Seed,
		Quantum:  10_000,
		MaxSteps: 500_000_000,
	})
	m := w.NewMutex()
	nonEmpty := w.NewCondition()
	nonFull := w.NewCondition()
	var queue, consumed sim.Word
	total := cfg.Producers * cfg.ItemsPerProducer
	for i := 0; i < cfg.Producers; i++ {
		k.Spawn("producer", func(e *sim.Env) {
			for n := 0; n < cfg.ItemsPerProducer; n++ {
				e.Work(uint64(cfg.Work))
				m.Acquire(e)
				for e.Load(&queue) == uint64(cfg.Capacity) {
					nonFull.Wait(e, m)
				}
				e.Add(&queue, 1)
				m.Release(e)
				nonEmpty.Signal(e)
			}
		})
	}
	for i := 0; i < cfg.Consumers; i++ {
		k.Spawn("consumer", func(e *sim.Env) {
			for {
				m.Acquire(e)
				for e.Load(&queue) == 0 {
					if e.Load(&consumed) >= uint64(total) {
						m.Release(e)
						nonEmpty.Broadcast(e)
						return
					}
					nonEmpty.Wait(e, m)
				}
				e.Add(&queue, ^uint64(0))
				n := e.Add(&consumed, 1)
				m.Release(e)
				nonFull.Signal(e)
				e.Work(uint64(cfg.Work))
				if n >= uint64(total) {
					nonEmpty.Broadcast(e)
					return
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		return SimPCResult{}, err
	}
	return SimPCResult{
		Stats:    w.Stats,
		Makespan: k.Makespan(),
		Micros:   k.MakespanMicros(),
		Items:    total,
	}, nil
}

// LostWakeupTrial parameterizes one seeded wakeup-race handshake with
// either the paper's eventcount condition variable (UseEventcount=true) or
// the naive racy one. Experiment E4 sweeps seeds over both and counts lost
// wakeups.
type LostWakeupTrial struct {
	Seed          int64
	Procs         int
	UseEventcount bool
	Waiters       int // racing waiters; all must wake
}

// RunLostWakeupTrial runs the trial and reports whether any wakeup was lost
// (the run deadlocked with a waiter still blocked).
func RunLostWakeupTrial(tr LostWakeupTrial) bool {
	w, k := simthreads.NewWorld(sim.Config{
		Procs:    tr.Procs,
		Seed:     tr.Seed,
		Policy:   sim.PolicyRandom,
		MaxSteps: 2_000_000,
	})
	m := w.NewMutex()
	var ready sim.Word
	var cond *simthreads.Condition
	var naive *baselines.NaiveSimCond
	if tr.UseEventcount {
		cond = w.NewCondition()
	} else {
		naive = baselines.NewNaiveSimCond()
	}
	wait := func(e *sim.Env) {
		if cond != nil {
			//threadsvet:ignore waitloop: nil-dispatch helper; every caller loops `for e.Load(&ready) == 0 { wait(e) }`
			cond.Wait(e, m)
		} else {
			naive.Wait(e, m)
		}
	}
	for i := 0; i < tr.Waiters; i++ {
		k.Spawn("waiter", func(e *sim.Env) {
			m.Acquire(e)
			for e.Load(&ready) == 0 {
				wait(e)
			}
			m.Release(e)
		})
	}
	k.Spawn("signaller", func(e *sim.Env) {
		m.Acquire(e)
		e.Store(&ready, 1)
		m.Release(e)
		// One broadcast, exactly when the predicate became true — the
		// protocol every correct condition variable must survive.
		if cond != nil {
			cond.Broadcast(e)
		} else {
			naive.Broadcast(e)
		}
	})
	return k.Run() != nil
}
