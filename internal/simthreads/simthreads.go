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
	// by its dense kernel ID; nil, or reset to an id of 0, until the thread
	// first touches a primitive in the run.
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
	// mutexes, sems, conds and timers hold every object of each kind the
	// world has made, in creation order. A reset world hands them out
	// again, so the n-th NewMutex of every run returns the same Mutex;
	// the next* counters say how many this run has taken.
	mutexes   []*Mutex
	sems      []*Semaphore
	conds     []*Condition
	timers    []*DeadlineTimer
	nextTimer int
	// digestFn is the digester registered with every run's kernel, and
	// woken is Broadcast's scratch list of threads to ready (used under
	// the Nub spin lock only).
	digestFn func(*sim.Hash128)
	woken    []*sim.T
	// Program is a slot for what a program builder made on the world: its
	// words, thread bodies and check, kept so that building the program
	// again on the reset world finds them instead of making them again.
	// The objects and threads it takes again are the same, since a reset
	// world hands out its objects, and its kernel its thread records, in
	// creation order. Reset keeps the slot.
	Program any
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
// same benign way the real flag read is). An id of 0 marks a state that
// no thread has touched since the world was made or reset.
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
	handoffEmit lin
	// basePri and donations implement priority inheritance (priority.go):
	// the thread's effective priority — what the kernel schedules by — is
	// max(basePri, donations values). basePri is captured at first contact,
	// before any donation can have landed.
	basePri   int
	donations map[int]int // gate queue id -> donated priority
	// acts keeps the thread's boxed TestAlert actions (slots 0 and 1, by
	// result) and its Alerts (slot 2+target), as the objects keep the
	// actions of their operations (see at).
	acts []spec.Action
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
	return NewWorldOpts(cfg, WorldOptions{})
}

// Reset returns w and its kernel, reset to cfg, to the state
// NewWorldOpts(cfg, opts) builds, and returns the kernel. It keeps the
// storage of both: the kernel's (see sim.Kernel.Reset), every thread's
// synchronization state, the objects the New* methods made, which they
// hand out again in creation order, the boxed actions those objects and
// threads emitted (see at), and the Program slot. Nothing of
// the previous run may be used once Reset is called, and Reset must not be
// called while the kernel runs.
func (w *World) Reset(cfg sim.Config, opts WorldOptions) *Kernel {
	k := w.k
	if k == nil {
		k = sim.NewKernel(cfg)
		w.k = k
		w.states = make([]*tstate, 0, 8) // a litmus program's threads: one allocation
		w.digestFn = w.digest
	} else {
		k.Reset(cfg)
	}
	for _, st := range w.states {
		if st != nil {
			st.reset()
		}
	}
	w.nub.Poke(0)
	w.traced = cfg.Trace != nil
	w.nextMutex, w.nextCond, w.nextSem, w.nextTimer = 0, 0, 0, 0
	w.Stats = Stats{}
	w.opts = opts
	w.queues, w.gates = w.queues[:0], w.gates[:0]
	w.nGates, w.nConds = 0, 0
	// Anything may be emitted under the Nub spin lock, so its word carries
	// every scope bit; the digester folds queue and tstate contents into
	// explorer state fingerprints.
	k.SetWordScope(&w.nub, ^uint64(0))
	k.AddDigester(w.digestFn)
	return k
}

// reset returns st to the state of a thread no primitive has touched,
// keeping its donation map's storage and its boxed actions.
func (st *tstate) reset() {
	clear(st.donations)
	*st = tstate{donations: st.donations, acts: st.acts}
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
		st = new(tstate)
		w.states[id] = st
	}
	if st.id == 0 {
		// spec IDs are 1-based; 0 is NIL. basePri is the thread's priority
		// at first contact: no donation can target a thread before it has a
		// tstate, so the current priority is the undonated base.
		st.id = spec.ThreadID(id + 1)
		st.basePri = t.Priority()
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

// at returns element i of *s, growing *s with zero elements as needed.
//
// The actions a traced world emits are boxed (converted to spec.Action,
// which allocates) at their first emission and kept in tables that grow
// with at: each Mutex, Semaphore and Condition keeps those of its
// operations, by spec thread ID, and each thread's state its Alerts and
// TestAlerts. Reset keeps the tables. A spec thread ID is the kernel ID
// plus one and the n-th object of a kind is the same object in every run
// of a world, so a kept action is the one a new world would box, and a
// traced run on a reused world boxes nothing.
func at[E any](s *[]E, i int) *E {
	if i >= len(*s) {
		*s = append(*s, make([]E, i+1-len(*s))...)
	}
	return &(*s)[i]
}

// lin is the action an operation performs at its linearization point,
// held as a value so that no operation builds a closure for it: op names
// the spec action, filled in from the operating thread's state st and the
// operation's objects (c and m for the condition operations). e is that
// thread's Env, also when a direct hand-off runs the action in the
// releaser's slice. The zero lin does nothing.
type lin struct {
	op linOp
	e  *sim.Env
	st *tstate
	m  *Mutex
	s  *Semaphore
	c  *Condition
}

type linOp uint8

const (
	linNone linOp = iota
	linAcquire
	linRelease
	linP
	linV
	linAlertPReturn
	linAlertPRaise
	linEnqueue
	linResume
	linAlertResumeReturn
	linAlertResumeRaise // this and linSeize also consume the thread's alert
	linSeize            // the AlertResume.Raise of VariantNoMNil (BuggyAlertSeize)
)

// nWaitActs is how many actions a condition keeps per thread and mutex:
// linEnqueue to linSeize.
const nWaitActs = int(linSeize-linEnqueue) + 1

// run performs l: it emits l's action, and a raising AlertResume consumes
// the thread's alert first.
func (l *lin) run(w *World) {
	if l.op >= linAlertResumeRaise {
		l.st.alerted = false
	}
	if !w.traced || l.op == linNone {
		return
	}
	p := l.slot()
	if *p == nil {
		*p = l.action()
	}
	l.e.Emit(*p)
}

// slot is where l's boxed action is kept: with its condition (by thread,
// then by mutex and operation), mutex or semaphore (by thread, then by
// operation).
func (l *lin) slot() *spec.Action {
	t := int(l.st.id)
	switch {
	case l.c != nil:
		return at(at(&l.c.waits, t), nWaitActs*(int(l.m.id)-1)+int(l.op-linEnqueue))
	case l.m != nil:
		return &at(&l.m.acts, t)[l.op-linAcquire]
	default:
		return &at(&l.s.acts, t)[l.op-linP]
	}
}

// action boxes l's action.
func (l *lin) action() spec.Action {
	t := l.st.id
	switch l.op {
	case linAcquire:
		return spec.Acquire{T: t, M: l.m.id}
	case linRelease:
		return spec.Release{T: t, M: l.m.id}
	case linP:
		return spec.P{T: t, S: l.s.id}
	case linV:
		return spec.V{T: t, S: l.s.id}
	case linAlertPReturn:
		return spec.AlertPReturn{T: t, S: l.s.id}
	case linAlertPRaise:
		return spec.AlertPRaise{T: t, S: l.s.id}
	case linEnqueue:
		return spec.Enqueue{T: t, M: l.m.id, C: l.c.id}
	case linResume:
		return spec.Resume{T: t, M: l.m.id, C: l.c.id}
	case linAlertResumeReturn:
		return spec.AlertResumeReturn{T: t, M: l.m.id, C: l.c.id}
	case linAlertResumeRaise:
		return spec.AlertResumeRaise{T: t, M: l.m.id, C: l.c.id, Variant: spec.VariantFinal}
	default:
		return spec.AlertResumeRaise{T: t, M: l.m.id, C: l.c.id, Variant: spec.VariantNoMNil}
	}
}
