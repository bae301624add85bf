package sim

import "threads/internal/queue"

// Word is a cell of simulated shared memory. All access goes through an
// Env, which charges instruction costs and yields to the kernel so the
// access is an interleaving point. The zero value is a Word containing 0.
//
// Besides its value a word carries what the kernel that last touched it
// knows about it: its registration ID and emission-scope mask
// (footprint.go), and the threads blocked on it. A word first touched by
// another kernel is registered afresh there and keeps only its value.
type Word struct {
	v     uint64
	id    uint32 // 1-based position in the kernel's words; 0 = unregistered
	scope uint64
	// watchers lists the threads blocked in a TASAwait or an AwaitChange
	// naming the word.
	watchers []*T
}

// Peek reads the word without simulating an access. For assertions and
// reporting after Run returns; simulated threads must use Env.Load.
func (w *Word) Peek() uint64 { return w.v }

// Poke writes the word without simulating an access: for test setup, and
// for resetting a word that a reused object carries into its next run.
func (w *Word) Poke(v uint64) { w.v = v }

// Env is a simulated thread's view of the machine: its instruction set
// (shared-memory access, local work) and its system calls (fork,
// deschedule, wake, priority control). An Env is valid only inside the
// thread function it was passed to.
type Env struct {
	t *T
	k *Kernel
}

// yieldPoint ends the thread's current step at its next instruction and
// returns when the thread is granted that instruction. The footprint fp
// declares what the instruction will touch (footprint.go); it is what the
// Choose hook sees as the candidate's next step.
//
// The thread runs the scheduler itself (baton passing): it accounts the
// step it just ended and chooses the next one. If it chooses itself it
// returns at once, with no switch; otherwise it leaves the chosen thread
// in k.next and yields its carrier to Run, which resumes the chosen one.
// When the run ends, the thread unwinds with simAbort: at once if the run
// has already ended, or when Run resumes it after the end.
func (e *Env) yieldPoint(op opKind, cost uint64, fp Footprint) {
	t := e.t
	t.pendingOp = op
	t.pendingCost = cost
	t.fp = fp
	next := t.k.advance(t)
	if next == t {
		return
	}
	if next == nil {
		panic(simAbort{})
	}
	t.k.next = next
	t.c.yield(struct{}{})
	if t.k.ended {
		panic(simAbort{})
	}
}

// declare builds the footprint for an access to w: its word ID, scope
// mask, and a Sched bit whenever the thread runs non-preemptible (the Nub
// critical sections — whose windows may wake threads and mutate thread
// queues — run non-preemptible, so this conservatively marks every step
// with hidden scheduler effects).
func (e *Env) declare(w *Word, kind AccessKind) Footprint {
	id := e.k.wordID(w) // before reading the scope: registration resets it
	return Footprint{
		Words: [2]uint32{id, 0},
		Kind:  kind,
		Sched: !e.t.preemptible,
		Scope: w.scope,
	}
}

// Load reads a shared word (one Load-cost instruction).
func (e *Env) Load(w *Word) uint64 {
	e.yieldPoint(opInstr, e.k.cost.Load, e.declare(w, AccessRead))
	e.t.obs = obsMix(e.t.obs, w.v)
	return w.v
}

// Store writes a shared word (one Store-cost instruction).
func (e *Env) Store(w *Word, v uint64) {
	e.yieldPoint(opInstr, e.k.cost.Store, e.declare(w, AccessWrite))
	w.v = v
	e.notifyWatchers(w)
}

// TAS is the hardware test-and-set: atomically sets the word to 1 and
// returns its previous value. The atomicity of the Threads primitives is
// ultimately ensured by the atomicity of this instruction.
func (e *Env) TAS(w *Word) uint64 {
	e.yieldPoint(opInstr, e.k.cost.TAS, e.declare(w, AccessWrite))
	old := w.v
	w.v = 1
	e.t.obs = obsMix(e.t.obs, old)
	e.notifyWatchers(w)
	return old
}

// Add atomically adds d to the word and returns the new value (an
// interlocked instruction; the VAX family provided several).
func (e *Env) Add(w *Word, d uint64) uint64 {
	e.yieldPoint(opInstr, e.k.cost.Store, e.declare(w, AccessWrite))
	w.v += d
	e.notifyWatchers(w)
	e.t.obs = obsMix(e.t.obs, w.v)
	return w.v
}

// TASAwait is TAS that blocks instead of busy-waiting: if the word is set,
// the calling thread deschedules until some thread changes it from the
// value it read, then retries. Semantically it is the WHEN-guarded atomic
// action a test-and-set spin loop implements — the thread makes no
// progress and touches nothing until the word clears — but because the
// waiting is blocking rather than spinning, a controlled scheduler
// (Config.Choose) sees a finite decision tree instead of an unbounded
// spin. Instruction accounting differs from an explicit spin loop (the
// retries are not charged), so performance experiments should keep the
// spin.
func (e *Env) TASAwait(w *Word) {
	// TASAwait steps always carry Sched=true: a successful acquisition of
	// the Nub lock opens a critical section whose windows mutate scheduler
	// state, and the explorer must never commute two of them.
	fp := e.declare(w, AccessWrite)
	fp.Sched = true
	for {
		e.yieldPoint(opInstr, e.k.cost.TAS, fp)
		if w.v == 0 {
			w.v = 1
			e.t.obs = obsMix(e.t.obs, 0)
			return
		}
		e.t.obs = obsMix(e.t.obs, w.v)
		e.watch("awaiting word clear", fp, WordVal{W: w, Old: w.v})
	}
}

// WordVal pairs a word with the value the caller last observed in it, for
// AwaitChange.
type WordVal struct {
	W   *Word
	Old uint64
}

// AwaitChange blocks until any of the listed words holds a value different
// from its paired Old, then returns. If some word already differs it
// returns immediately (the check and the registration are one atomic
// step, so no change can slip between them). Like TASAwait, it is the
// blocking form of a busy-wait — semantically the schedules it admits are
// the spin loop's minus the unfair ones where the spinner is scheduled
// forever without the awaited write ever landing — and exists so that
// algorithms that spin on shared words (Peterson's entry protocol, for
// example) have a finite decision tree under a controlled scheduler.
// Callers must re-check their predicate after it returns and loop.
func (e *Env) AwaitChange(wv ...WordVal) {
	fp := Footprint{Kind: AccessRead, Sched: !e.t.preemptible}
	for i, p := range wv {
		id := e.k.wordID(p.W)
		if i < len(fp.Words) {
			fp.Words[i] = id
		} else {
			// More words than footprint slots: go conservative.
			fp.Scope = ^uint64(0)
		}
		fp.Scope |= p.W.scope
	}
	for {
		e.yieldPoint(opInstr, e.k.cost.Load*uint64(len(wv)), fp)
		for _, p := range wv {
			if p.W.v != p.Old {
				e.t.obs = obsMix(e.t.obs, p.W.v)
				return
			}
		}
		e.watch("awaiting word change", fp, wv...)
	}
}

// watch blocks the thread on the watcher lists of wv's words until some
// word changes from its paired Old. It deregisters after waking, in case
// the deschedule was consumed by a pending wakeup that arrived for another
// reason: a stale registration would later wake it out of thin air.
func (e *Env) watch(reason string, fp Footprint, wv ...WordVal) {
	t := e.t
	t.awaitWV = append(t.awaitWV[:0], wv...)
	for _, p := range wv {
		p.W.watchers = append(p.W.watchers, t)
	}
	t.blockReason = reason
	t.resumeFP = fp
	e.yieldPoint(opBlock, 0, fp)
	t.blockReason = ""
	t.unwatch()
}

// notifyWatchers wakes every thread blocked in TASAwait or AwaitChange on w
// whose predicate now holds (some watched word changed from its recorded
// value).
func (e *Env) notifyWatchers(w *Word) {
	if len(w.watchers) == 0 {
		return
	}
	woken := e.k.woken[:0]
	for _, t := range w.watchers {
		for _, p := range t.awaitWV {
			if p.W.v != p.Old {
				woken = append(woken, t)
				break
			}
		}
	}
	for _, t := range woken {
		t.unwatch()
		e.MakeReady(t)
	}
	e.k.woken = woken
}

// unwatch removes t from the watch list of every word its AwaitChange
// names.
func (t *T) unwatch() {
	for _, p := range t.awaitWV {
		for i, x := range p.W.watchers {
			if x == t {
				p.W.watchers = append(p.W.watchers[:i], p.W.watchers[i+1:]...)
				break
			}
		}
	}
}

// Work charges n units of local computation without touching shared
// memory. It models the instructions between shared accesses (register
// moves, branches, call overhead) so instruction counts can be calibrated.
func (e *Env) Work(n uint64) {
	if n == 0 {
		return
	}
	e.yieldPoint(opInstr, n*e.k.cost.Unit, Footprint{Kind: AccessNone, Sched: !e.t.preemptible})
}

// Fork creates a new simulated thread at priority 0. The paper's interface
// creates "a virtually unlimited number of threads"; the kernel places the
// new thread in the ready pool and runs it when a processor is free.
func (e *Env) Fork(name string, fn func(*Env)) *T {
	e.t.stepSched = true
	return e.k.Spawn(name, fn)
}

// ForkPri is Fork with an explicit priority.
func (e *Env) ForkPri(name string, pri int, fn func(*Env)) *T {
	e.t.stepSched = true
	return e.k.SpawnPri(name, pri, fn)
}

// Deschedule removes the calling thread from its processor until another
// thread calls MakeReady on it. If a MakeReady raced ahead, Deschedule
// consumes it and returns immediately (the sleep/wakeup discipline). The
// reason string appears in deadlock reports.
func (e *Env) Deschedule(reason string) {
	e.DescheduleScope(reason, 0)
}

// DescheduleScope is Deschedule with a declared emission scope for the
// resume window: if the code that runs after the wakeup may emit trace
// events naming some object (a hand-off completion, an alert raise), the
// blocking site passes that object's scope mask so the explorer treats the
// resume step as conflicting with other steps on the same object.
func (e *Env) DescheduleScope(reason string, scope uint64) {
	e.t.blockReason = reason
	e.t.resumeFP = Footprint{Kind: AccessResume, Scope: scope}
	e.yieldPoint(opBlock, 0, Footprint{Kind: AccessNone})
	e.t.blockReason = ""
}

// MakeReady moves t to the ready pool if it is descheduled, or records a
// pending wakeup if it has not descheduled yet. Calling it on a ready,
// running or finished thread with no deschedule in flight leaves a pending
// wakeup that its next Deschedule will consume.
func (e *Env) MakeReady(t *T) {
	e.t.stepSched = true
	if t.state == stateBlocked {
		t.state = stateReady
		t.wakePending = false
		e.k.ready.Push(t.item)
		return
	}
	if t.state != stateDone {
		t.wakePending = true
	}
}

// SetPreemptible controls whether the time-slicer may preempt the calling
// thread at quantum expiry. The Nub runs its spin-lock critical sections
// non-preemptible, as kernel code effectively did on the Firefly; a
// preempted spin-lock holder would livelock every spinner.
func (e *Env) SetPreemptible(on bool) {
	e.t.preemptible = on
}

// SetPriority changes the calling thread's scheduling priority.
func (e *Env) SetPriority(pri int) {
	e.t.stepSched = true
	e.t.item.Priority = queue.Priority(pri)
	// If the thread is on the ready pool the heap is fixed up; if it is
	// running the new priority takes effect at its next preemption.
	e.k.ready.Fix(e.t.item)
}

// SetPriorityOf changes another thread's scheduling priority — the Nub
// facility priority inheritance needs (a donor boosting a mutex holder). It
// is not an instruction: the caller is inside a Nub critical section whose
// surrounding accesses are the yield points, so the change is part of the
// current step (marked scheduler-relevant for the explorer).
func (e *Env) SetPriorityOf(t *T, pri int) {
	e.t.stepSched = true
	t.item.Priority = queue.Priority(pri)
	e.k.ready.Fix(t.item)
}

// Self returns the calling thread.
func (e *Env) Self() *T { return e.t }

// Now returns the calling processor's clock in cost units.
func (e *Env) Now() uint64 { return e.k.procs[e.t.proc].clock }

// Instret returns the instructions executed by the calling thread so far;
// differences around an operation measure its instruction cost (E1).
func (e *Env) Instret() uint64 { return e.t.instret }

// Emit records an Event carrying payload at the current time. Emission is
// free (no instruction cost): it is observation, not computation, like a
// logic analyzer on the simulated bus.
func (e *Env) Emit(payload any) {
	if e.k.cfg.Trace == nil {
		return
	}
	e.k.seq++
	e.k.cfg.Trace(Event{
		Seq:     e.k.seq,
		Clock:   e.k.procs[e.t.proc].clock,
		Proc:    e.t.proc,
		Thread:  e.t,
		Payload: payload,
	})
}

// Event is one traced occurrence in a run.
type Event struct {
	Seq     uint64 // global order of emission
	Clock   uint64 // emitting processor's clock
	Proc    int    // processor index
	Thread  *T     // emitting thread
	Payload any
}
