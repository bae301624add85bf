// Package simthreads is the paper's Firefly implementation of the Threads
// synchronization primitives, reproduced instruction-for-instruction on the
// internal/sim multiprocessor.
//
// Layering follows §Implementation of SRC Report 20 exactly:
//
//   - User code runs in the calling thread and handles the cases where no
//     one blocks or wakes: Acquire is test-and-set + branch (2
//     instructions), Release is clear + queue test + branch (3
//     instructions) — 5 instructions for the uncontended pair, 10 µs at the
//     MicroVAX II's 2 µs/instruction (experiment E1).
//
//   - Nub code runs under a single global spin lock (one shared bit,
//     acquired by busy-waiting test-and-set). Nub subroutines maintain the
//     queues of threads blocked by Acquire, Wait and P, deschedule threads,
//     and move woken threads to the simulator's ready pool. Nub critical
//     sections run non-preemptible, as kernel code did on the Firefly.
//
// A mutex is (lock bit, queue); a semaphore is identical. A condition
// variable is (eventcount, queue): Wait reads the eventcount, releases the
// mutex, and calls Block(c, i), which under the spin lock compares i with
// the count and either returns (a Signal or Broadcast intervened — this is
// how one Signal can unblock several racing threads, experiment E3) or
// deschedules the caller. The eventcount, not a semaphore bit, is what lets
// Broadcast release arbitrarily many threads caught in the wakeup-waiting
// window (experiments E4, E5).
//
// When a World is traced, every primitive emits a spec-level action at its
// linearization point (always inside the spin lock, or at the fast-path
// atomic instruction), so internal/trace can replay the run against the
// formal specification (experiment E9).
package simthreads

import (
	"threads/internal/sim"
	"threads/internal/spec"
)

// instruction costs of the non-memory parts of the user code, calibrated so
// the uncontended Acquire-Release pair is the paper's 5 instructions.
const (
	branchCost  = 1 // conditional branch after a test
	callCost    = 2 // calling into a Nub subroutine
	queueOpCost = 2 // linking/unlinking a queue element
)

// World ties a set of primitives to one simulated machine and carries the
// per-thread synchronization state (alert flags, wake reasons).
type World struct {
	k *Kernel
	// nub is the global spin-lock bit protecting all Nub data structures.
	nub sim.Word
	// states holds each simulated thread's synchronization state, indexed
	// by its dense kernel ID; nil until the thread first touches a
	// primitive.
	states []*tstate
	// traced enables spec-action emission.
	traced bool
	// ids hands out spec-level object identities for tracing.
	nextMutex spec.MutexID
	nextCond  spec.CondID
	nextSem   spec.SemID
	// stats mirror the contention counters of internal/core.
	Stats Stats
	// opts disables optimizations for the ablation experiments.
	opts WorldOptions
	// queues registers every thread queue for state digests, and the
	// nGates/nConds counters allocate emission-scope bits (see digest.go).
	// gates lists every gate so digests can fold the priority-inheritance
	// holder hints.
	queues []*tqueue
	gates  []*gate
	nGates int
	nConds int
	// conds lists every condition variable, for CheckConditions.
	conds []*Condition
}

// Kernel is re-exported so callers need only import simthreads for common
// use.
type Kernel = sim.Kernel

// Stats counts fast-path and Nub-path executions in the simulated world.
type Stats struct {
	AcquireFast, AcquireNub, AcquirePark uint64
	ReleaseFast, ReleaseNub              uint64
	ReleaseHandoff                       uint64
	WaitElided, WaitPark                 uint64
	SignalFast, SignalNub, SignalWoke    uint64
	BcastFast, BcastNub, BcastWoke       uint64
}

// tstate is one thread's synchronization state, protected by the Nub spin
// lock (except alerted's pending-read in user code, which is racy in the
// same benign way the real flag read is).
type tstate struct {
	id       spec.ThreadID
	alerted  bool
	wakeup   wakeReason
	alertTgt *tqueue // the queue it sleeps on while blocked alertably
	// handoffEmit is the blocked acquisition's linearization-point action,
	// stashed (under the Nub spin lock, before descheduling) so a direct
	// hand-off can run it in the RELEASER's slice: the release and the
	// recipient's acquisition are then adjacent in the emitted history,
	// exactly as the transfer makes them adjacent in the abstract state.
	// Emitting at the recipient's wakeup instead would let a concurrent
	// V+P pair overtake the recorded order and fail conformance.
	handoffEmit func()
	// basePri and donations implement priority inheritance (priority.go):
	// the thread's effective priority — what the kernel schedules by — is
	// max(basePri, donations values). basePri is captured at first contact,
	// before any donation can have landed.
	basePri   int
	donations map[int]int // gate queue id -> donated priority
}

type wakeReason int

const (
	wakeNone     wakeReason = iota
	wakeTransfer            // woken by Release/V/Signal/Broadcast
	wakeAlert               // woken by Alert
	wakeHandoff             // woken holding: the releaser transferred the gate
)

// tqueue is a FIFO of simulated threads, manipulated only under the Nub
// spin lock; each operation charges queueOpCost instructions. The id
// names the queue in state digests (see digest.go).
type tqueue struct {
	id    int
	items []*sim.T
}

func (q *tqueue) push(e *sim.Env, t *sim.T) {
	e.Work(queueOpCost)
	q.items = append(q.items, t)
}

func (q *tqueue) pop(e *sim.Env) *sim.T {
	e.Work(queueOpCost)
	if len(q.items) == 0 {
		return nil
	}
	// The Nub "does priority scheduling": the most urgent waiter leaves
	// first, FIFO within a band. The scan keeps the first of equals, so
	// priority-free programs dequeue exactly as the plain FIFO did.
	best := 0
	for i := 1; i < len(q.items); i++ {
		if q.items[i].Priority() > q.items[best].Priority() {
			best = i
		}
	}
	t := q.items[best]
	q.items = append(q.items[:best], q.items[best+1:]...)
	return t
}

func (q *tqueue) remove(e *sim.Env, t *sim.T) bool {
	e.Work(queueOpCost)
	for i, x := range q.items {
		if x == t {
			q.items = append(q.items[:i], q.items[i+1:]...)
			return true
		}
	}
	return false
}

func (q *tqueue) empty() bool { return len(q.items) == 0 }

// NewWorld creates a World over a fresh kernel built from cfg.
func NewWorld(cfg sim.Config) (*World, *Kernel) {
	k := sim.NewKernel(cfg)
	w := &World{
		k:      k,
		states: make([]*tstate, 0, 8), // a litmus program's threads: one allocation
		traced: cfg.Trace != nil,
	}
	// Anything may be emitted under the Nub spin lock, so its word carries
	// every scope bit; the digester folds queue and tstate contents into
	// explorer state fingerprints.
	k.SetWordScope(&w.nub, ^uint64(0))
	k.AddDigester(w.digest)
	return w, k
}

// state returns (creating on demand) the synchronization state of t.
// Creation is safe anywhere: the simulator serializes all execution.
func (w *World) state(t *sim.T) *tstate {
	id := t.ID()
	if id >= len(w.states) {
		w.states = append(w.states, make([]*tstate, id+1-len(w.states))...)
	}
	st := w.states[id]
	if st == nil {
		// spec IDs are 1-based; 0 is NIL. basePri is the thread's priority
		// at first contact: no donation can target a thread before it has a
		// tstate, so the current priority is the undonated base.
		st = &tstate{id: spec.ThreadID(id + 1), basePri: t.Priority()}
		w.states[id] = st
	}
	return st
}

// nubLock busy-waits on the global spin-lock bit and disables preemption
// for the critical section, mirroring kernel-mode execution. Under
// WorldOptions.NubAwait the busy-wait is replaced by a blocking await with
// identical semantics (see the option's comment).
func (w *World) nubLock(e *sim.Env) {
	if w.opts.NubAwait {
		e.TASAwait(&w.nub)
	} else {
		for e.TAS(&w.nub) != 0 {
			// spin: each iteration is one TAS instruction
		}
	}
	e.SetPreemptible(false)
}

func (w *World) nubUnlock(e *sim.Env) {
	e.SetPreemptible(true)
	e.Store(&w.nub, 0)
}

func (w *World) emit(e *sim.Env, a spec.Action) {
	if w.traced {
		e.Emit(a)
	}
}
