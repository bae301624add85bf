package sim

import (
	"errors"
	"math/bits"
)

// This file gives the simulator the two introspection surfaces the schedule
// explorer's optimisations need (internal/explore):
//
//   - step footprints: before every yield point a thread declares which
//     shared Word its next instruction touches and how (read/write), plus a
//     conservative "scheduling" bit for steps whose atomic window may mutate
//     scheduler state (ready pool, wakeups, thread flags). The explorer's
//     partial-order reduction derives an independence relation from these.
//   - state fingerprints: a 128-bit hash of the canonical machine state
//     (threads, registered words, watch sets, plus client-registered
//     digesters for state the kernel cannot see) taken at decision points.
//     The explorer's state cache prunes subtrees whose fingerprint was
//     already explored with at least as much preemption budget.
//
// Soundness of the footprint story rests on a discipline the simthreads
// layer keeps (documented in DESIGN.md): every mutation of scheduler-visible
// state that happens *inside* an atomic window — MakeReady, thread-queue and
// thread-state updates — occurs either under the Nub spin lock (entered via
// TASAwait, or running non-preemptible) or in a resume window whose scope
// the blocking site declared via DescheduleScope. Declared footprints
// therefore over-approximate window effects: any step that could touch
// scheduler state carries Sched=true or a Scope covering the objects whose
// events its window may emit.

// AccessKind classifies the shared-memory access a step declared.
type AccessKind uint8

const (
	// AccessNone is a step with no shared access (Work, thread start).
	AccessNone AccessKind = iota
	// AccessRead reads the declared word(s).
	AccessRead
	// AccessWrite reads and/or writes the declared word.
	AccessWrite
	// AccessResume is the window a thread runs right after waking from a
	// block: it has no declared word access of its own, but may complete a
	// protocol (e.g. emit a stashed hand-off event) within the scope its
	// blocking site declared.
	AccessResume
)

// Footprint is the declared effect of one scheduling step: the access the
// thread will execute when next granted, plus conservative bits for
// everything else its atomic window may do.
type Footprint struct {
	// Words holds the IDs of the declared shared words (0 = unused slot).
	// Single-word accesses use Words[0]; AwaitChange declares up to two.
	Words [2]uint32
	// Kind classifies the access.
	Kind AccessKind
	// Sched marks steps whose window may mutate scheduler state (wake a
	// thread, push/pop thread queues): TASAwait steps and any step declared
	// while non-preemptible (i.e. inside a Nub critical section).
	Sched bool
	// Scope is the emission-scope mask of the touched words: a bitmask of
	// the spec-level objects whose trace events may be emitted from this
	// step's window (see Kernel.SetWordScope). Two steps with intersecting
	// scopes may emit events the conformance checker orders, so the
	// explorer must not commute them.
	Scope uint64
}

// PendingFootprint returns the footprint of the access the thread declared
// at its last yield point — what it will execute when next granted. This
// is the candidate's "next step" signature the explorer's partial-order
// reduction compares at decision points.
func (t *T) PendingFootprint() Footprint { return t.fp }

// ErrAborted is returned by Run when Kernel.Abort cut the run short (the
// explorer's state cache does this when it recognises an already-explored
// state). An aborted run's trace is a prefix of a full run's trace.
var ErrAborted = errors.New("sim: run aborted")

// Abort makes Run return ErrAborted before granting the next step. Safe to
// call from inside a Choose or OnStep hook.
func (k *Kernel) Abort() { k.aborted = true }

// wordID returns w's ID in k, registering w on its first access in k's
// run. IDs are assigned in first-access order, which is deterministic for
// a fixed program along a fixed schedule prefix — the only place the
// explorer compares them. A word registered by another kernel, or before
// k's last Reset, is registered afresh and keeps only its value; its wait
// lists keep their storage.
func (k *Kernel) wordID(w *Word) uint32 {
	if w.id == 0 || int(w.id) > len(k.words) || k.words[w.id-1] != w {
		w.scope = 0
		w.watchers = w.watchers[:0]
		k.words = append(k.words, w)
		w.id = uint32(len(k.words)) // IDs start at 1; 0 means "no word"
	}
	return w.id
}

// SetWordScope associates an emission-scope mask with w: the set of
// spec-level objects whose trace events can be emitted from an atomic
// window that accesses w. simthreads registers a bit per gate/condition
// (see World scope registration); words never named in emissions keep
// scope 0. Accessing a word never registered is fine — its scope is 0.
func (k *Kernel) SetWordScope(w *Word, scope uint64) {
	k.wordID(w) // register now so fingerprints include it from the start
	w.scope = scope
}

// AddDigester registers fn to be called by Fingerprint so layers above the
// kernel (thread queues, per-thread Nub state) can fold their state into
// the hash. Digesters must write a deterministic function of that state.
func (k *Kernel) AddDigester(fn func(*Hash128)) {
	k.digesters = append(k.digesters, fn)
}

// Fingerprint hashes the canonical machine state: every thread's lifecycle
// state, scheduling flags, observation history and declared next access;
// every registered word's value; the watch sets; and whatever
// the registered digesters contribute. Two runs of the same program that
// reach equal fingerprints at decision points are (up to hash collision)
// in identical states: thread code position and locals are determined by
// the observation history, because thread functions are deterministic
// functions of the values their shared reads returned.
func (k *Kernel) Fingerprint() (uint64, uint64) {
	h := NewHash128()
	h.Add(uint64(len(k.threads)))
	for _, t := range k.threads {
		h.Add(uint64(t.state)<<32 | uint64(uint32(t.item.Priority)))
		var flags uint64
		if t.preemptible {
			flags |= 1
		}
		if t.wakePending {
			flags |= 2
		}
		if t.fp.Sched {
			flags |= 4
		}
		flags |= uint64(t.fp.Kind) << 8
		h.Add(flags)
		h.Add(uint64(t.fp.Words[0])<<32 | uint64(t.fp.Words[1]))
		h.Add(t.fp.Scope)
		h.Add(t.instret)
		h.Add(t.obs)
	}
	h.Add(0x9e3779b97f4a7c15) // section separator
	for _, w := range k.words {
		h.Add(w.v)
	}
	// The wait sets, in word-ID order.
	for _, w := range k.words {
		if len(w.watchers) > 0 {
			h.Add(uint64(w.id) | 1<<41)
			for _, t := range w.watchers {
				h.Add(uint64(t.id))
			}
		}
	}
	if k.lastRun != nil {
		h.Add(uint64(k.lastRun.id) + 1)
	} else {
		h.Add(0)
	}
	for _, fn := range k.digesters {
		fn(&h)
	}
	return h.Hi, h.Lo
}

// Hash128 is an incremental 128-bit FNV-1a-style hash over 64-bit values
// (the standard FNV-128 prime and offset basis, absorbed a word at a time
// rather than a byte at a time — fingerprints hash whole machine words and
// only equality matters). It must be stable across processes: the state
// cache persists fingerprints to disk between nightly runs.
type Hash128 struct {
	Hi, Lo uint64
}

// FNV-128 offset basis and prime (2^88 + 2^8 + 0x3b).
const (
	fnvBasisHi = 0x6c62272e07bb0142
	fnvBasisLo = 0x62b821756295c58d
	fnvPrimeHi = 1 << 24
	fnvPrimeLo = 0x13b
)

// NewHash128 returns a hash initialized to the FNV-128 offset basis.
func NewHash128() Hash128 {
	return Hash128{Hi: fnvBasisHi, Lo: fnvBasisLo}
}

// Add absorbs one 64-bit value.
func (h *Hash128) Add(x uint64) {
	h.Lo ^= x
	// Multiply (Hi,Lo) by the FNV-128 prime modulo 2^128.
	hi, lo := bits.Mul64(h.Lo, fnvPrimeLo)
	hi += h.Hi*fnvPrimeLo + h.Lo*fnvPrimeHi
	h.Hi, h.Lo = hi, lo
}

// obsMix folds a value read from shared memory into a thread's observation
// hash (FNV-1a 64). The sequence of values a thread has read determines
// its control flow and locals, so this hash stands in for "program counter
// plus registers" in state fingerprints.
func obsMix(h, v uint64) uint64 {
	if h == 0 {
		h = 0xcbf29ce484222325
	}
	return (h ^ v) * 0x100000001b3
}
