package checker

// This file is the primitive registry: the table that ties every
// synchronization primitive this repository ships — the paper's four, the
// internal extensions, and the derived/ toolkit — to the verification
// machinery that covers it. Each entry declares
//
//   - SpecFace: which part of the formal specification gives the primitive
//     its meaning (a paper section for the core four; the derivation for
//     everything built on top — derived primitives inherit the spec through
//     trace replay, since every explored schedule's linearization is run
//     through the spec state machine);
//   - Litmuses: the registry scenarios (see Registry) that model-check and
//     schedule-explore it — being listed here is what the growth test
//     enforces, so a primitive cannot ship without explorer coverage;
//   - VetObligations: the threadsvet analyzers whose usage discipline the
//     primitive's callers are held to (cmd/threadsvet names match
//     internal/analysis).
//
// Growing the toolkit is therefore one entry here plus one litmus builder:
// TestPrimitiveRegistryClosed fails until both exist and resolve, and fails
// again if a litmus is added without a primitive claiming it.

// Primitive is one row of the table.
type Primitive struct {
	// Name identifies the primitive (kebab-case).
	Name string
	// Layer is where it lives: "paper" (the four from the specification),
	// "internal" (extensions inside internal/core), or "derived" (package
	// derived, built only on the public interface).
	Layer string
	// SpecFace says which formal text defines it.
	SpecFace string
	// Litmuses are registry scenario names covering it (≥ 1).
	Litmuses []string
	// VetObligations are threadsvet analyzer names its users are held to
	// (≥ 1).
	VetObligations []string
}

// Primitives returns the primitive table, in layer-then-dependency order.
func Primitives() []*Primitive {
	return []*Primitive{
		{
			Name:           "mutex",
			Layer:          "paper",
			SpecFace:       "Mutex module: Acquire/Release over thread-owned locks (spec §ReleaseAcquire); deadline variant consumes its timer alert before returning",
			Litmuses:       []string{"mutex", "mutex-handoff"},
			VetObligations: []string{"lockpair", "lockorder"},
		},
		{
			Name:           "condition",
			Layer:          "paper",
			SpecFace:       "Condition module: Wait is a hint (may return early), Signal/Broadcast over waiters (spec §WaitSignal); AlertWaitDeadline adds the timer-alert epilogue",
			Litmuses:       []string{"prodcons"},
			VetObligations: []string{"waitloop", "condmutex"},
		},
		{
			Name:           "semaphore",
			Layer:          "paper",
			SpecFace:       "Semaphore module: binary P/V with wakeup-waiting (spec §PV); AlertPDeadline degenerates to TryP at an expired deadline",
			Litmuses:       []string{"sem", "sem-handoff"},
			VetObligations: []string{"alerted"},
		},
		{
			Name:           "alert",
			Layer:          "paper",
			SpecFace:       "Alert module: Alert/TestAlert/AlertWait with the corrected no-seize semantics (spec §Alerts, VariantFinal vs VariantNoMNil)",
			Litmuses:       []string{"alert", "alert-broken"},
			VetObligations: []string{"alerted"},
		},
		{
			Name:           "deadline",
			Layer:          "internal",
			SpecFace:       "derived from Alert: the thread's runtime timer alerts it at its deadline; stop-or-await-the-fire and drain on every exit path is the invariant the deadline litmuses check",
			Litmuses:       []string{"deadline", "deadline-broken"},
			VetObligations: []string{"alerted"},
		},
		{
			Name:           "spinlock",
			Layer:          "internal",
			SpecFace:       "below the paper's interface: raw shared memory under sequential consistency (Peterson's algorithm is its litmus)",
			Litmuses:       []string{"peterson"},
			VetObligations: []string{"nubdiscipline"},
		},
		{
			Name:           "counting-semaphore",
			Layer:          "derived",
			SpecFace:       "derived from Mutex+Condition: one permit count guarded by the mutex, Acquire waits on one condition while it is zero, Release Signals; traces replay through the spec state machine",
			Litmuses:       []string{"csem"},
			VetObligations: []string{"waitloop"},
		},
		{
			Name:           "pool",
			Layer:          "derived",
			SpecFace:       "derived from Mutex+Condition: a stack of free items guarded by the mutex, Get waits on one condition while it is empty, Put Signals (the paper's one-waiter-can-benefit example); traces replay through the spec state machine",
			Litmuses:       []string{"pool"},
			VetObligations: []string{"waitloop"},
		},
		{
			Name:           "rwlock",
			Layer:          "derived",
			SpecFace:       "derived from Mutex+Condition: readers enter and leave with one atomic add on a word that also counts writers, and only a counted writer sends them through the mutex and condition; traces replay through the spec state machine",
			Litmuses:       []string{"rwlock"},
			VetObligations: []string{"waitloop", "condmutex"},
		},
		{
			Name:           "monitor",
			Layer:          "derived",
			SpecFace:       "derived from Mutex+Condition: Hoare-style monitor face (Enter/Exit/Do, bound conditions); traces replay through the spec state machine",
			Litmuses:       []string{"monitor"},
			VetObligations: []string{"waitloop", "condmutex"},
		},
		{
			Name:           "barrier-phaser",
			Layer:          "derived",
			SpecFace:       "derived from Mutex+Condition: generation-counted cyclic barrier with separable arrive/await; traces replay through the spec state machine",
			Litmuses:       []string{"phaser"},
			VetObligations: []string{"waitloop"},
		},
		{
			Name:           "latch",
			Layer:          "derived",
			SpecFace:       "derived from Mutex+Condition: one-shot gate opened by Broadcast; traces replay through the spec state machine",
			Litmuses:       []string{"latch"},
			VetObligations: []string{"waitloop"},
		},
		{
			Name:           "future",
			Layer:          "derived",
			SpecFace:       "derived from Mutex+Condition+Alert: single-assignment cell with alertable Get; traces replay through the spec state machine",
			Litmuses:       []string{"future"},
			VetObligations: []string{"waitloop", "alerted"},
		},
		{
			Name:           "priority",
			Layer:          "internal",
			SpecFace:       "below the paper's interface: the Nub's priority scheduling (SRC Report 20 §Implementation) with priority inheritance on mutexes; boost/restore stamps replay through spec §Priorities",
			Litmuses:       []string{"priority-inversion", "priority-inversion-broken"},
			VetObligations: []string{"prioritydiscipline"},
		},
		{
			Name:           "mpsc-ring",
			Layer:          "derived",
			SpecFace:       "derived from Mutex+Condition: bounded circular buffer, one condition per direction; traces replay through the spec state machine",
			Litmuses:       []string{"mpsc"},
			VetObligations: []string{"waitloop"},
		},
	}
}
