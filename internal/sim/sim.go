// Package sim is a deterministic multiprocessor simulator standing in for
// the Firefly workstation the paper's implementation ran on.
//
// The Firefly is a symmetric multiprocessor: several processors addressing
// one shared memory, with an atomic test-and-set instruction, on which the
// Taos Nub runs a ready pool, a priority-based scheduling algorithm and a
// time-slicing algorithm (SRC Report 20, §Implementation). The simulator
// provides exactly those facilities:
//
//   - P simulated processors executing simulated threads;
//   - shared memory Words with Load, Store and test-and-set, each costing a
//     configurable number of instructions (the MicroVAX II profile makes an
//     uncontended Acquire-Release pair cost 5 instructions / 10 µs, the
//     paper's figure);
//   - a ready pool ordered by priority with FIFO tie-break, time slicing
//     with a configurable quantum, and voluntary descheduling — the
//     substrate internal/simthreads builds the synchronization Nub on;
//   - a scheduling policy that is either time-faithful (least-clock-first,
//     for performance experiments) or adversarially random (for race
//     exploration), both driven by a seed so every run is reproducible.
//
// Execution is interleaving-based: every shared-memory access is a yield
// point, exactly one thread executes between yield points, and a run is a
// deterministic function of (program, config, seed). Local computation
// between accesses is free unless the thread declares it with Work(n); this
// matches the usual operational model for shared-memory algorithms, where
// only the shared accesses order.
//
// Each simulated thread runs on a carrier, a coroutine taken from a pool
// (Carriers), and the scheduler runs on whichever thread holds the baton:
// the thread that reaches a yield point accounts its own step and chooses
// the next one. If it chooses itself it simply continues; otherwise it
// names the chosen thread and yields to Run, whose loop resumes that
// thread's carrier. A coroutine switch does not pass through the Go
// scheduler, and the kernel's state is only ever touched by the one
// coroutine running, so the kernel needs no locks. Run makes the first
// decision, and once the run has ended it resumes each thread still parked
// mid-body so that the thread unwinds.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"threads/internal/queue"
)

// Policy selects how the kernel chooses the next processor to advance.
type Policy int

const (
	// PolicyLeastClock advances the processor with the smallest local
	// clock (random tie-break). This approximates true parallel execution:
	// the makespan of a run is the maximum processor clock.
	PolicyLeastClock Policy = iota
	// PolicyRandom advances a uniformly random runnable processor. Clocks
	// still advance, but the interleaving is adversarial; use it to hunt
	// races across seeds.
	PolicyRandom
)

// Config parameterizes a Kernel.
//
// The hooks Trace, Choose and OnStep run on the carrier of whichever
// simulated thread reached the yield point, or emitted the event; Run's own
// goroutine makes the first scheduling decision. No two hooks ever run at
// once, so they need no locking among themselves, but a hook must not
// block, and neither a hook nor a thread body may call t.Fatal or
// runtime.Goexit: Run re-raises the Goexit on its caller and leaves the
// run's other threads parked. A panic in a hook or in a thread body ends
// the run, and Run re-raises the first such panic on its caller's
// goroutine once every thread has unwound.
type Config struct {
	// Procs is the number of processors (default 1; the Firefly of the
	// paper had several MicroVAX II processors — the benchmarks use 5).
	Procs int
	// Quantum is the time-slice length in cost units; 0 disables
	// time slicing.
	Quantum uint64
	// Seed drives all scheduling randomness; runs with equal
	// (program, Config) are identical.
	Seed int64
	// Policy selects the scheduling policy (default PolicyLeastClock).
	Policy Policy
	// Cost is the instruction-cost profile (default MicroVAXII if zero).
	Cost CostProfile
	// MaxSteps aborts the run after this many instructions (0 = no
	// limit). A livelocked program (for example a spin lock whose holder
	// was preempted forever) hits this instead of hanging the test.
	MaxSteps uint64
	// Trace, if non-nil, receives every Event the run produces.
	Trace func(Event)
	// Choose, if non-nil, replaces Policy entirely with an external
	// scheduling decision: whenever more than one thread could execute its
	// next instruction, the kernel calls Choose with the thread that
	// executed the previous instruction (nil before the first) and the
	// runnable candidates in ascending thread-ID order, and advances the
	// candidate whose index Choose returns. Every shared-memory access is
	// a yield point, so Choose sees — and controls — every interleaving
	// decision of the run; internal/explore drives it to enumerate
	// schedule spaces. With Choose set the Seed is never consulted. The
	// kernel reuses cands for the next decision, so Choose must not retain
	// it.
	Choose func(prev *T, cands []*T) int
	// OnStep, if non-nil, receives the footprint of every executed step
	// (the access the thread had declared, with Sched forced true when the
	// step's window woke or created a thread or changed a priority). The
	// explorer accumulates these into per-edge footprints for its
	// partial-order reduction.
	OnStep func(t *T, fp Footprint)
	// Carriers, if non-nil, is the pool the run's threads take their
	// carriers from and return them to. A goroutine that runs many kernels
	// one after another keeps one pool and closes it when done. With nil,
	// Run makes a pool of its own and closes it before it returns.
	Carriers *Carriers
}

// CostProfile gives the instruction cost of each simulated operation.
type CostProfile struct {
	Load  uint64 // read a shared word
	Store uint64 // write a shared word
	TAS   uint64 // test-and-set a shared word
	Unit  uint64 // one unit of Work(n)
	// MicrosPerInstr converts instruction counts to microseconds in
	// reports (MicroVAX II: an Acquire-Release pair is 5 instructions and
	// 10 µs, so 2 µs per instruction).
	MicrosPerInstr float64
}

// MicroVAXII is the cost profile calibrated to the paper's numbers.
func MicroVAXII() CostProfile {
	return CostProfile{Load: 1, Store: 1, TAS: 1, Unit: 1, MicrosPerInstr: 2}
}

func (c CostProfile) orDefault() CostProfile {
	if c.Load == 0 && c.Store == 0 && c.TAS == 0 && c.Unit == 0 {
		return MicroVAXII()
	}
	return c
}

// Errors returned by Run.
var (
	// ErrStepLimit reports that MaxSteps was exhausted.
	ErrStepLimit = errors.New("sim: step limit exceeded")
)

// DeadlockError reports that no thread could run: every live thread was
// descheduled and nothing remained to wake one.
type DeadlockError struct {
	// Blocked lists the descheduled threads and their block reasons.
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return "sim: deadlock: all live threads blocked: " + strings.Join(e.Blocked, "; ")
}

// threadState is the lifecycle of a simulated thread.
type threadState int

const (
	stateReady threadState = iota
	stateRunning
	stateBlocked
	stateDone
)

// T is a simulated thread.
type T struct {
	id   int
	name string
	k    *Kernel

	state threadState
	proc  int // processor index while running
	item  *queue.PItem[*T]
	// c is the carrier running the thread, from its first step until its
	// body ends.
	c           *carrier
	env         Env
	fn          func(*Env)
	instret     uint64 // instructions executed by this thread
	pendingOp   opKind
	pendingCost uint64
	blockReason string
	wakePending bool // MakeReady arrived before the Deschedule
	preemptible bool
	// fp is the footprint of the access declared at the last yield point —
	// exactly what the thread will execute when next granted. resumeFP is
	// installed as fp when an opBlock is processed, so a woken thread's
	// next step is labelled with the scope its blocking site declared.
	fp       Footprint
	resumeFP Footprint
	// obs is the thread's observation hash: every value its shared reads
	// returned, folded in order (see obsMix).
	obs uint64
	// stepSched is set when the current window wakes/creates a thread or
	// changes a priority; the kernel folds it into the step's footprint.
	stepSched bool
	// awaitWV is what the thread's TASAwait or AwaitChange awaits while it
	// is blocked there: its own copy, so the caller's list need not outlive
	// the call.
	awaitWV []WordVal
}

// ID returns the thread's kernel-unique id.
func (t *T) ID() int { return t.id }

// Name returns the thread's name.
func (t *T) Name() string { return t.name }

// String implements fmt.Stringer.
func (t *T) String() string { return t.name }

// Instret returns the number of instructions the thread has executed.
func (t *T) Instret() uint64 { return t.instret }

// Priority returns the thread's current scheduling priority.
func (t *T) Priority() int { return int(t.item.Priority) }

type opKind int

const (
	opNone opKind = iota
	opInstr
	opBlock
	opExit
)

type proc struct {
	id          int
	cur         *T
	clock       uint64
	busy        uint64 // cycles actually executing (clock minus idle catch-ups)
	quantumLeft uint64
}

// simAbort unwinds a thread when the run ends before it does.
type simAbort struct{}

// Kernel owns the simulated machine: processors, threads, ready pool,
// clocks and the scheduler state the threads hand to one another.
type Kernel struct {
	cfg     Config
	cost    CostProfile
	rng     *rand.Rand // nil when Choose makes every decision
	procs   []*proc
	threads []*T
	ready   queue.PriorityQueue[*T]
	// next is the thread the baton holder chose before it yielded to Run;
	// nil once the run has ended.
	next    *T
	steps   uint64
	lastEvt uint64 // clock of the most recent instruction, for idle procs
	seq     uint64
	// lastRun is the thread that executed the previous instruction; the
	// Choose hook uses it to tell voluntary switches from preemptions.
	lastRun *T
	// exec is the footprint lastRun declared before it was granted: the
	// access its current step executes, reported to OnStep at the next
	// yield point.
	exec Footprint
	// runnable and cands are the candidate lists of the current decision,
	// reused across decisions, and woken notifyWatchers' list of threads
	// to wake.
	runnable []*proc
	cands    []*T
	woken    []*T
	// ended is set when the run ends, with err as Run's result. panicked
	// is the first panic from a thread body or a hook.
	ended    bool
	err      error
	panicked any
	// words registers every shared word in first-access order: words[i]
	// has ID i+1 (see footprint.go).
	words     []*Word
	digesters []func(*Hash128)
	aborted   bool
}

// NewKernel builds a machine from cfg: a new kernel's first Reset.
func NewKernel(cfg Config) *Kernel {
	k := new(Kernel)
	k.Reset(cfg)
	return k
}

// Reset returns k to the state NewKernel(cfg) builds, keeping the storage
// of its processors, thread records, ready queue and word and candidate
// lists, so that a goroutine running one program after another allocates
// them once. The previous run's threads are recycled: neither they nor
// anything holding them may be used once Reset is called. Reset must not
// be called while Run is running.
func (k *Kernel) Reset(cfg Config) {
	if cfg.Procs <= 0 {
		cfg.Procs = 1
	}
	procs := k.procs[:0]
	for i := 0; i < cfg.Procs; i++ {
		var p *proc
		if i < cap(procs) {
			p = procs[:i+1][i]
		}
		if p == nil {
			p = new(proc)
		}
		*p = proc{id: i}
		procs = append(procs, p)
	}
	var rng *rand.Rand // nil when Choose makes every decision
	if cfg.Choose == nil {
		rng = rand.New(rand.NewSource(cfg.Seed))
	}
	k.ready.Reset()
	*k = Kernel{
		cfg:       cfg,
		cost:      cfg.Cost.orDefault(),
		rng:       rng,
		procs:     procs,
		threads:   k.threads[:0],
		ready:     k.ready,
		runnable:  k.runnable[:0],
		cands:     k.cands[:0],
		woken:     k.woken[:0],
		words:     k.words[:0],
		digesters: k.digesters[:0],
	}
}

// Spawn creates a thread at priority 0 that will run fn. It may be called
// before Run or from inside running thread code (the Nub's thread
// creation); the thread enters the ready pool immediately.
func (k *Kernel) Spawn(name string, fn func(*Env)) *T {
	return k.SpawnPri(name, 0, fn)
}

// SpawnPri is Spawn with an explicit priority (larger = more urgent). The
// thread takes the record, if any, that its ID had before the last Reset.
func (k *Kernel) SpawnPri(name string, pri int, fn func(*Env)) *T {
	id := len(k.threads)
	var t *T
	if id < cap(k.threads) {
		t = k.threads[:id+1][id]
	}
	if t == nil {
		t = &T{item: new(queue.PItem[*T])}
	}
	if name == "" {
		name = fmt.Sprintf("t%d", id)
	}
	*t = T{
		id:          id,
		name:        name,
		k:           k,
		item:        t.item,
		env:         Env{t: t, k: k},
		fn:          fn,
		preemptible: true,
		awaitWV:     t.awaitWV[:0],
	}
	*t.item = queue.PItem[*T]{Value: t, Priority: queue.Priority(pri)}
	k.threads = append(k.threads, t)
	k.ready.Push(t.item)
	return t
}

// main runs the thread's body on its carrier, then accounts its exit and
// leaves the thread chosen next in k.next for Run.
func (t *T) main() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(simAbort); !ok {
				t.k.fail(r)
			}
		}
	}()
	t.fn(&t.env)
	t.pendingOp = opExit
	t.k.next = t.k.advance(t)
}

// Run executes the machine until every thread is done. It returns nil on
// normal completion, a *DeadlockError if live threads remain but none can
// run, ErrStepLimit, or ErrAborted; a panic in a thread body or a hook is
// re-raised here. Run may be called once per NewKernel or Reset.
func (k *Kernel) Run() error {
	if k.cfg.Carriers == nil {
		k.cfg.Carriers = new(Carriers)
		defer k.cfg.Carriers.Close()
	}
	for t := k.advance(nil); t != nil; t = k.next {
		k.next = nil
		k.resume(t)
	}
	// The run has ended. Each thread still parked mid-body unwinds with
	// simAbort, which returns its carrier to the pool.
	for _, t := range k.threads {
		if t.c != nil {
			k.resume(t)
		}
	}
	if k.panicked != nil {
		panic(k.panicked)
	}
	return k.err
}

// resume runs t on its carrier until t yields to Run: at a yield point
// where it chose another thread or the run ended, or when its body ends.
// A thread takes a carrier from the pool at its first step and returns it
// when its body ends.
func (k *Kernel) resume(t *T) {
	c := t.c
	if c == nil {
		c = k.cfg.Carriers.get()
		c.t, t.c = t, c
	}
	c.co.resume()
	if c.t == nil {
		t.c = nil
		k.cfg.Carriers.put(c)
	}
}

// end finishes the run with err, unless it has already ended.
func (k *Kernel) end(err error) {
	if !k.ended {
		k.ended = true
		k.err = err
	}
}

// fail records r if it is the run's first panic and ends the run.
func (k *Kernel) fail(r any) {
	if k.panicked == nil {
		k.panicked = r
	}
	k.end(nil)
}

// advance is the scheduler. It runs on the coroutine that holds the baton:
// the thread t that just reached a yield point or exited, or Run's with a
// nil t for the first decision. It accounts the step t just ended, then
// chooses the next step and returns the thread to run it, or nil once the
// run has ended.
func (k *Kernel) advance(t *T) (next *T) {
	if k.ended {
		return nil // t is unwinding after the end; the machine is frozen
	}
	defer func() {
		if r := recover(); r != nil {
			k.fail(r) // from a hook, or a bad Choose index
			next = nil
		}
	}()
	if t != nil {
		if err := k.account(t); err != nil {
			k.end(err)
			return nil
		}
	}
	// Assign ready threads to idle processors. An idle processor's clock
	// catches up to the event that made work available.
	for _, p := range k.procs {
		if p.cur != nil {
			continue
		}
		it := k.ready.Pop()
		if it == nil {
			break
		}
		t := it.Value
		t.state = stateRunning
		t.proc = p.id
		if p.clock < k.lastEvt {
			p.clock = k.lastEvt
		}
		p.quantumLeft = k.cfg.Quantum
		p.cur = t
	}
	cand := k.runnable[:0]
	for _, p := range k.procs {
		if p.cur != nil {
			cand = append(cand, p)
		}
	}
	k.runnable = cand
	if len(cand) == 0 {
		if live := k.blockedThreads(); len(live) > 0 {
			k.end(&DeadlockError{Blocked: live})
		} else {
			k.end(nil) // all threads done
		}
		return nil
	}
	next = k.pick(cand).cur
	if k.aborted {
		// A Choose/OnStep hook cut the run short (state-cache prune).
		k.end(ErrAborted)
		return nil
	}
	k.lastRun = next
	// The access executing in the granted step is the one next declared
	// at its last yield; save it before the step overwrites next.fp with
	// the following declaration.
	k.exec = next.fp
	return next
}

// account charges the step t ended by reaching its yield point (or by
// exiting): it reports the step to OnStep, then applies the pending
// operation t declared there. A non-nil error ends the run.
func (k *Kernel) account(t *T) error {
	if k.cfg.OnStep != nil {
		exec := k.exec
		exec.Sched = exec.Sched || t.stepSched
		k.cfg.OnStep(t, exec)
	}
	t.stepSched = false

	p := k.procs[t.proc]
	switch t.pendingOp {
	case opExit:
		t.state = stateDone
		p.cur = nil
	case opBlock:
		// Whether the block sticks or a pending wakeup consumes it, the
		// next granted step is the resume window.
		t.fp = t.resumeFP
		if t.fp.Kind == AccessNone {
			t.fp.Kind = AccessResume
		}
		t.resumeFP = Footprint{}
		if t.wakePending {
			// A wakeup raced ahead of the deschedule; consume it and keep
			// running (the sleep/wakeup discipline of the Nub).
			t.wakePending = false
			return nil
		}
		t.state = stateBlocked
		p.cur = nil
	case opInstr:
		cost := t.pendingCost
		p.clock += cost
		p.busy += cost
		t.instret += cost
		k.steps += cost
		if p.clock > k.lastEvt {
			k.lastEvt = p.clock
		}
		if k.cfg.MaxSteps > 0 && k.steps > k.cfg.MaxSteps {
			return ErrStepLimit
		}
		// Time slicing: at quantum expiry a preemptible thread goes back
		// to the ready pool if anyone is waiting to run.
		if k.cfg.Quantum > 0 && t.preemptible {
			if cost >= p.quantumLeft {
				p.quantumLeft = 0
			} else {
				p.quantumLeft -= cost
			}
			if p.quantumLeft == 0 && !k.ready.Empty() {
				t.state = stateReady
				k.ready.Push(t.item)
				p.cur = nil
			}
		}
	default:
		panic("sim: thread yielded with no pending operation")
	}
	return nil
}

func (k *Kernel) pick(cand []*proc) *proc {
	if len(cand) == 1 {
		return cand[0]
	}
	if k.cfg.Choose != nil {
		// Canonical order: ascending thread ID, so a decision index means
		// the same thread on every run with the same prefix of choices.
		// There are at most Procs candidates, so insertion sort.
		for i := 1; i < len(cand); i++ {
			for j := i; j > 0 && cand[j].cur.id < cand[j-1].cur.id; j-- {
				cand[j], cand[j-1] = cand[j-1], cand[j]
			}
		}
		ts := k.cands[:0]
		for _, p := range cand {
			ts = append(ts, p.cur)
		}
		k.cands = ts
		i := k.cfg.Choose(k.lastRun, ts)
		if i < 0 || i >= len(cand) {
			panic(fmt.Sprintf("sim: Choose returned index %d with %d candidates", i, len(cand)))
		}
		return cand[i]
	}
	if k.cfg.Policy == PolicyRandom {
		return cand[k.rng.Intn(len(cand))]
	}
	// Least clock first, random tie-break.
	min := cand[0].clock
	for _, p := range cand[1:] {
		if p.clock < min {
			min = p.clock
		}
	}
	tied := cand[:0] // filtered in place: cand is rebuilt every decision
	for _, p := range cand {
		if p.clock == min {
			tied = append(tied, p)
		}
	}
	return tied[k.rng.Intn(len(tied))]
}

func (k *Kernel) blockedThreads() []string {
	var out []string
	for _, t := range k.threads {
		if t.state == stateBlocked {
			out = append(out, fmt.Sprintf("%s (%s)", t.name, t.blockReason))
		}
	}
	sort.Strings(out)
	return out
}

// Steps returns the number of instruction units executed so far.
func (k *Kernel) Steps() uint64 { return k.steps }

// Makespan returns the maximum processor clock — the parallel running time
// of the run in cost units.
func (k *Kernel) Makespan() uint64 {
	var m uint64
	for _, p := range k.procs {
		if p.clock > m {
			m = p.clock
		}
	}
	return m
}

// MakespanMicros converts Makespan to microseconds via the cost profile.
func (k *Kernel) MakespanMicros() float64 {
	return float64(k.Makespan()) * k.cost.MicrosPerInstr
}

// Threads returns all threads ever spawned on this kernel.
func (k *Kernel) Threads() []*T { return k.threads }

// Utilization returns, per processor, the fraction of the makespan it spent
// executing instructions (as opposed to idling with no assigned thread).
func (k *Kernel) Utilization() []float64 {
	span := k.Makespan()
	out := make([]float64, len(k.procs))
	if span == 0 {
		return out
	}
	for i, p := range k.procs {
		out[i] = float64(p.busy) / float64(span)
	}
	return out
}
