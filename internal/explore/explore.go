// Package explore is a schedule-space model checker for the simulated
// implementation: it drives internal/sim's kernel through controlled
// scheduling decisions instead of seeded randomness, enumerating or
// sampling the interleavings of the litmus programs registered in
// internal/checker and replaying every explored schedule's linearization
// trace through the formal specification (internal/trace).
//
// The simulator executes exactly one thread between yield points, and
// every shared-memory access is a yield point, so a run is a deterministic
// function of the sequence of scheduling decisions — "which runnable
// thread executes its next instruction". That sequence is the package's
// object of study:
//
//   - Explore performs bounded-exhaustive enumeration with iterative
//     context-bound widening: all schedules with at most k preemptions (a
//     switch away from a thread that could have kept running), for
//     k = 0, 1, 2, … — the CHESS insight that real concurrency bugs
//     almost always need only a few preemptions.
//   - Fuzz samples weighted-random schedules from the same decision tree,
//     for the tail the bound does not reach.
//
// A failing schedule — a conformance divergence from the specification, a
// panic, a deadlock, a livelock, or a wrong outcome — is serialized as a
// replayable Certificate: the sparse list of decisions that differed from
// the default policy. Certificates are automatically minimized (decision
// points are dropped while the failure still reproduces) and replay
// byte-identically, so a CI failure travels as a small JSON file that
// reproduces locally with `threadsim -replay`.
package explore

import (
	"errors"
	"fmt"
	"math/rand"

	"threads/internal/checker"
	"threads/internal/sim"
	"threads/internal/simthreads"
	"threads/internal/spec"
	"threads/internal/trace"
)

// Violation is one failing schedule's diagnosis.
type Violation struct {
	// Kind is "conformance" (the linearization trace diverges from the
	// formal specification), "panic" (a thread body panicked; Detail is the
	// panic value), "deadlock", "livelock" (step limit), or "outcome" (the
	// litmus's own post-run check failed).
	Kind   string
	Detail string
}

func (v *Violation) Error() string { return v.Kind + ": " + v.Detail }

// Decision records one controlled scheduling decision: the runnable
// candidates (thread IDs in canonical ascending order), which the default
// policy would have picked, which was picked, and the preemptions spent
// strictly before it. The enumeration engine additionally records what
// its optimisations need: declared next-step footprints (sleep-set
// pruning), the footprint of the edge executed after the decision, and
// the machine-state fingerprint at the decision point (state cache).
type Decision struct {
	CandIDs      []int
	Chosen       int
	Default      int
	PrevRunnable bool // the previously-running thread was a candidate
	CumPre       int

	CandFPs []sim.Footprint // declared next steps (parallel to CandIDs), when POR is on
	Edge    edgeFP          // steps executed between this decision and the next
	H1, H2  uint64          // state fingerprint, when a cache is attached
}

// Preempted reports whether this decision switched away from a thread
// that could have kept running — the context switches the k-bound counts.
func (d Decision) Preempted() bool { return d.cost(d.Chosen) == 1 }

// cost is the preemptions choosing candidate i spends: one for a
// non-default choice where the previous thread could have kept running.
func (d *Decision) cost(i int) int {
	if d.PrevRunnable && i != d.Default {
		return 1
	}
	return 0
}

// affordable reports whether choosing candidate i keeps the schedule
// within the context bound k.
func (d *Decision) affordable(i, k int) bool { return d.CumPre+d.cost(i) <= k }

// recorder implements sim.Config.Choose for one run, recording every
// decision and delegating the choice to whichever mode is set: a forced
// prefix of canonical indices (exhaustive enumeration), per-step thread
// name overrides (certificate replay), or a seeded sampler (fuzzing).
// Past or absent all modes, the default policy applies: keep running the
// previous thread if it is still runnable, else the lowest-ID candidate.
//
// The enumeration engine reuses one recorder across millions of runs, so
// per-decision slices are carved out of append-only arenas reset between
// runs, and the decisions of the previous run's prefix that the next run
// repeats are kept rather than recorded again (see reset). The zero-value
// recorder (replay, fuzzing) works identically, just without reuse.
type recorder struct {
	forced      []int
	overrides   map[int]string
	rng         *rand.Rand
	preemptProb float64

	// engine extensions (all off for replay/fuzz recorders).
	por   bool        // record footprints and edges for sleep sets
	cache *StateCache // fingerprint decision points, abort on cache hit
	bound int         // the context bound k; remaining budget = bound − preempts
	kern  *sim.Kernel // the run's kernel, set by the runner before Run

	decisions []Decision
	keep      int  // decisions[:keep] are the previous run's, repeated
	step      int  // decisions made in this run
	applied   int  // overrides that named a candidate at their step
	diverged  bool // a forced index exceeded the candidate count, or a kept decision's candidates changed
	aborted   bool // the state cache cut this run short
	preempts  int
	curEdge   edgeFP

	idArena []int
	fpArena []sim.Footprint
}

// reset prepares the recorder for another run under a new forced prefix
// whose first keep decisions are known to repeat the last run's: the
// engine backtracked to depth keep, so forced[:keep] are the choices the
// last run made there. Those decisions stay recorded, arenas included, and
// the run only checks that their candidates are unchanged.
func (r *recorder) reset(forced []int, keep int) {
	r.forced = forced
	r.truncate(keep)
	r.step = 0
	r.applied = 0
	r.diverged = false
	r.aborted = false
	r.preempts = 0
	r.curEdge = edgeFP{}
	r.kern = nil
}

// truncate keeps the first n decisions as the run's kept prefix, and their
// slices of the arenas.
func (r *recorder) truncate(n int) {
	r.decisions = r.decisions[:n]
	r.keep = n
	ids, fps := 0, 0
	for i := range r.decisions {
		ids += len(r.decisions[i].CandIDs)
		fps += len(r.decisions[i].CandFPs)
	}
	r.idArena = r.idArena[:ids]
	r.fpArena = r.fpArena[:fps]
}

// onStep is the sim.Config.OnStep hook: it accumulates the footprints of
// the steps executed since the last decision point into the current edge,
// unless that decision is kept, whose edge is already recorded.
func (r *recorder) onStep(_ *sim.T, fp sim.Footprint) {
	if r.step > r.keep {
		r.curEdge.add(fp)
	}
}

func (r *recorder) choose(prev *sim.T, cands []*sim.T) int {
	step := r.step
	if r.por && step > r.keep {
		r.decisions[step-1].Edge = r.curEdge
		r.curEdge = edgeFP{}
	}
	var h1, h2 uint64
	if r.cache != nil {
		h1, h2 = r.kern.Fingerprint()
		if step == 0 {
			r.cache.validateRoot(h1, h2)
		}
		if b, ok := r.cache.get(h1, h2); ok && int(b) >= r.bound-r.preempts {
			// This exact machine state was already explored with at least
			// as much remaining preemption budget: every schedule below is
			// covered. Cut the run; it is not counted as a schedule.
			r.aborted = true
			r.kern.Abort()
			return 0
		}
	}
	r.step++
	if step < r.keep {
		if d := &r.decisions[step]; sameIDs(d.CandIDs, cands) {
			r.preempts += d.cost(d.Chosen)
			return d.Chosen
		}
		// The tree changed under the kept prefix; this never happens for
		// prefixes recorded from the same litmus. Record afresh from here.
		r.diverged = true
		r.truncate(step)
	}
	ib, fb := len(r.idArena), len(r.fpArena)
	for _, t := range cands {
		r.idArena = append(r.idArena, t.ID())
	}
	def := 0
	prevRunnable := false
	if prev != nil {
		for i, t := range cands {
			if t == prev {
				def, prevRunnable = i, true
				break
			}
		}
	}
	chosen := def
	switch {
	case step < len(r.forced):
		chosen = r.forced[step]
		if chosen < 0 || chosen >= len(cands) {
			// The decision tree changed under a stale prefix; this never
			// happens for prefixes recorded from the same litmus, and is
			// surfaced as a diagnostic rather than a crash.
			r.diverged = true
			chosen = def
		}
	case r.overrides != nil:
		if name, ok := r.overrides[step]; ok {
			for i, t := range cands {
				if t.Name() == name {
					chosen = i
					r.applied++
					break
				}
			}
		}
	case r.rng != nil:
		if prevRunnable {
			if len(cands) > 1 && r.rng.Float64() < r.preemptProb {
				o := r.rng.Intn(len(cands) - 1)
				if o >= def {
					o++
				}
				chosen = o
			}
		} else {
			chosen = r.rng.Intn(len(cands))
		}
	}
	// Append the decision in place: every field is written, as the slot
	// may hold a decision of an earlier run.
	if step < cap(r.decisions) {
		r.decisions = r.decisions[:step+1]
	} else {
		r.decisions = append(r.decisions, Decision{})
	}
	d := &r.decisions[step]
	d.CandIDs = r.idArena[ib:len(r.idArena):len(r.idArena)]
	d.Chosen = chosen
	d.Default = def
	d.PrevRunnable = prevRunnable
	d.CumPre = r.preempts
	d.CandFPs = nil
	if r.por {
		for _, t := range cands {
			r.fpArena = append(r.fpArena, t.PendingFootprint())
		}
		d.CandFPs = r.fpArena[fb:len(r.fpArena):len(r.fpArena)]
	}
	d.Edge = edgeFP{}
	d.H1, d.H2 = h1, h2
	r.preempts += d.cost(chosen)
	return chosen
}

// finish ends the run's record: a run that stopped inside its kept prefix
// keeps only the decisions it made. Only the state cache stops a run
// there; anything else means the tree changed under the prefix.
func (r *recorder) finish() {
	if r.step < len(r.decisions) {
		r.decisions = r.decisions[:r.step]
		r.diverged = r.diverged || !r.aborted
	}
}

// sameIDs reports whether cands are, in order, the threads ids names.
func sameIDs(ids []int, cands []*sim.T) bool {
	if len(ids) != len(cands) {
		return false
	}
	for i, t := range cands {
		if t.ID() != ids[i] {
			return false
		}
	}
	return true
}

// RunResult is one controlled run of a litmus program. A run made on a
// runner aliases that runner's storage (Decisions, Events and the threads)
// until the runner's next run.
type RunResult struct {
	Decisions   []Decision
	Preemptions int
	Events      []trace.Event // the linearization trace
	RunErr      error
	Violation   *Violation
	Steps       uint64
	Diverged    bool
	Aborted     bool // the state cache cut the run short (suffix already covered)
	// Unapplied counts the certificate choices a replay could not apply:
	// those naming a thread that was not a candidate at their step, and
	// those whose step the run never reached.
	Unapplied int

	threads []*sim.T // the run's threads by ID, for naming certificate choices
}

// maxRunSteps cuts off livelocked schedules; litmus runs are a few
// thousand instructions, so the margin is enormous.
const maxRunSteps = 2_000_000

// runner is the handle one goroutine runs litmus programs on: a world and
// its kernel, the carriers their threads run on, the linearization trace,
// the checker that replays it through the specification, and the hooks
// that feed the run's recorder and the trace, all reset in place before
// every run. It also holds the engine that enumerates on it, which
// newEngine resets for every bound, keeping its path and its recorder's
// arenas. It serves one run at a time, so each goroutine that runs
// programs holds its own; a violating run's result aliases the runner, so
// an engine stops at its first violation.
type runner struct {
	carriers sim.Carriers
	w        simthreads.World
	events   []trace.Event
	check    *trace.Checker
	rec      *recorder // the current run's
	en       engine

	choose func(*sim.T, []*sim.T) int
	onStep func(*sim.T, sim.Footprint)
	trace  func(sim.Event)
}

func newRunner() *runner {
	h := &runner{check: trace.New()}
	h.choose = func(prev *sim.T, cands []*sim.T) int { return h.rec.choose(prev, cands) }
	h.onStep = func(t *sim.T, fp sim.Footprint) { h.rec.onStep(t, fp) }
	h.trace = func(ev sim.Event) {
		if a, ok := ev.Payload.(spec.Action); ok {
			h.events = append(h.events, trace.Event{Seq: ev.Seq, Thread: ev.Thread.Name(), Action: a})
		}
	}
	return h
}

// close ends the runner's idle carriers.
func (h *runner) close() { h.carriers.Close() }

// run executes lit's simulator program once under rec's schedule, replays
// the linearization trace through the specification, and applies the
// litmus's own outcome check and then, since every thread finished, the
// check that no condition variable kept a commitment or a waiter.
func (h *runner) run(lit *checker.Litmus, rec *recorder) RunResult {
	opts := lit.Sim.Opts
	opts.NubAwait = true // finite decision tree; see WorldOptions.NubAwait
	cfg := sim.Config{
		Procs:    lit.Sim.Procs,
		Quantum:  lit.Sim.Quantum,
		MaxSteps: maxRunSteps,
		Choose:   h.choose,
		Carriers: &h.carriers,
		Trace:    h.trace,
	}
	if rec.por {
		cfg.OnStep = h.onStep
	}
	h.rec = rec
	h.events = h.events[:0]
	k := h.w.Reset(cfg, opts)
	rec.kern = k
	check := lit.Sim.Build(&h.w, k)
	panicked, err := runKernel(k)
	rec.finish()
	res := RunResult{
		Decisions:   rec.decisions,
		Preemptions: rec.preempts,
		Events:      h.events,
		RunErr:      err,
		Steps:       k.Steps(),
		Diverged:    rec.diverged,
		Aborted:     rec.aborted,
		threads:     k.Threads(),
	}
	if _, verr := h.check.CheckAll(h.events); verr != nil {
		res.Violation = &Violation{Kind: "conformance", Detail: verr.Error()}
	} else if panicked != nil {
		res.Violation = &Violation{Kind: "panic", Detail: fmt.Sprintf("%v", panicked)}
	} else if errors.Is(err, sim.ErrAborted) {
		// Cut short by the state cache; the trace prefix above was still
		// conformance-checked, and the unexplored suffix is covered by the
		// earlier visit that populated the cache entry.
	} else if err != nil {
		kind := "deadlock"
		if errors.Is(err, sim.ErrStepLimit) {
			kind = "livelock"
		}
		res.Violation = &Violation{Kind: kind, Detail: err.Error()}
	} else {
		var cerr error
		if check != nil {
			cerr = check()
		}
		if cerr == nil {
			cerr = h.w.CheckConditions()
		}
		if cerr != nil {
			res.Violation = &Violation{Kind: "outcome", Detail: cerr.Error()}
		}
	}
	return res
}

// runKernel runs k and hands back a panic that Run re-raised from a thread
// body, so that one crashing schedule is reported as a violation with a
// certificate instead of killing the whole sweep. Run re-raises only after
// every thread has unwound, so nothing of the run is left behind.
func runKernel(k *sim.Kernel) (panicked any, err error) {
	defer func() { panicked = recover() }()
	return nil, k.Run()
}
