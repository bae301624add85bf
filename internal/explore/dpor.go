package explore

import "threads/internal/sim"

// This file is the partial-order reduction core: an independence relation
// over scheduling steps derived from the footprints the simulator declares
// (internal/sim/footprint.go), and the sleep-set bookkeeping that exploits
// it (Godefroid's sleep sets, adapted to the odometer enumeration in
// enumerate.go).
//
// Two steps are independent when executing them in either order reaches the
// same state AND emits spec-level events whose relative order the
// conformance checker cannot distinguish. The footprint over-approximation:
//
//   - two data accesses conflict if they share a word and at least one
//     writes;
//   - a scheduling step (Sched: a Nub critical section entry, or any step
//     declared while non-preemptible) conflicts with every other scheduling
//     step — both may mutate ready pools, wake sets and thread queues;
//   - a scheduling step also conflicts with any step whose emission scope
//     is non-empty: Nub windows emit actions naming arbitrary objects
//     (Signal, Alert, direct hand-off), so commuting one past a fast-path
//     emitter (Wait's committed-counter increment emits Enqueue) could
//     reorder events on the same object;
//   - two steps with intersecting emission scopes conflict for the same
//     reason.
//
// Everything else commutes. Sleep sets built from this relation prune only
// schedules Mazurkiewicz-equivalent to ones still explored, so the set of
// reachable states, deadlocks, outcomes and checkable event orders is
// preserved. The interaction with the preemption bound is the usual CHESS
// caveat (a pruned schedule and its representative can differ in preemption
// count); the cross-validation tests in crossval_test.go hold the optimized
// explorer to naive verdicts on every registry litmus.

// PORMode selects the partial-order reduction applied during enumeration.
type PORMode int

const (
	// POROff explores the decision tree naively (the zero value).
	POROff PORMode = iota
	// PORSleepSets prunes schedule interleavings that commute with ones
	// already explored, using per-node sleep sets over step footprints.
	PORSleepSets
)

// edgeFP accumulates the footprints of every step executed between two
// consecutive decision points: the "edge" of the decision tree. Small and
// value-copied; an overflow past the word array degrades to conflicting
// with everything (soundness over pruning).
type edgeFP struct {
	n     int
	wide  bool
	sched bool
	scope uint64
	words [8]uint32
	write [8]bool
}

func (e *edgeFP) add(fp sim.Footprint) {
	e.sched = e.sched || fp.Sched
	e.scope |= fp.Scope
	w := fp.Kind == sim.AccessWrite
	for s := 0; s < 2; s++ {
		id := fp.Words[s]
		if id == 0 {
			continue
		}
		seen := false
		for i := 0; i < e.n; i++ {
			if e.words[i] == id {
				e.write[i] = e.write[i] || w
				seen = true
				break
			}
		}
		if !seen {
			if e.n == len(e.words) {
				e.wide = true
			} else {
				e.words[e.n] = id
				e.write[e.n] = w
				e.n++
			}
		}
	}
}

// conflicts reports whether a candidate's declared next step is dependent
// on the given edge — if not, running the candidate before or after the
// edge reaches the same state with an indistinguishable event order.
func conflicts(c sim.Footprint, e *edgeFP) bool {
	if e.wide {
		return true
	}
	if c.Sched && (e.sched || e.scope != 0) {
		return true
	}
	if c.Scope != 0 && (e.sched || c.Scope&e.scope != 0) {
		return true
	}
	cw := c.Kind == sim.AccessWrite
	for s := 0; s < 2; s++ {
		id := c.Words[s]
		if id == 0 {
			continue
		}
		for i := 0; i < e.n; i++ {
			if e.words[i] == id && (cw || e.write[i]) {
				return true
			}
		}
	}
	return false
}

// nodeState is the per-decision-point enumeration state: which threads are
// asleep (their subtrees are redundant — an equivalent interleaving is
// explored elsewhere) and which are done (their subtrees completed).
// Threads are tracked as ID bitmasks; litmus programs use a handful of
// threads, and idBit refuses IDs past 63 loudly rather than aliasing.
type nodeState struct {
	sleep uint64
	done  uint64
}

func idBit(id int) uint64 {
	if id < 0 || id >= 64 {
		panic("explore: thread id out of range for sleep-set bitmasks")
	}
	return 1 << uint(id)
}

// inheritSleep computes a child node's sleep set from its parent: every
// thread asleep or completed at the parent stays asleep below, unless its
// pending step conflicts with the edge just executed (the parent's chosen
// step and the free steps that followed it). The chosen thread itself is
// never asleep in its own subtree.
func inheritSleep(parent nodeState, d *Decision) uint64 {
	s := parent.sleep | parent.done
	s &^= idBit(d.CandIDs[d.Chosen])
	if s == 0 {
		return 0
	}
	var out uint64
	for i, id := range d.CandIDs {
		b := idBit(id)
		if s&b != 0 && !conflicts(d.CandFPs[i], &d.Edge) {
			out |= b
		}
	}
	return out
}

// earlierSiblings reconstructs the done set a node had when the serial
// depth-first search descended into d.Chosen: the default choice (always
// explored first, at preemption cost 0) plus every affordable, non-slept
// alternative ordered before it. The parallel frontier uses this so a
// worker handed a forced prefix computes the same sleep sets — and thus
// the same schedule counts — as a serial run would at that point.
func earlierSiblings(d *Decision, ns nodeState, k int) uint64 {
	if d.Chosen == d.Default {
		return 0
	}
	bits := idBit(d.CandIDs[d.Default])
	for i := 0; i < d.Chosen; i++ {
		if i != d.Default && ns.sleep&idBit(d.CandIDs[i]) == 0 && d.affordable(i, k) {
			bits |= idBit(d.CandIDs[i])
		}
	}
	return bits
}

// countSlept counts the affordable alternatives a node never explored
// because they were asleep — the schedules (at least one each) the
// reduction pruned.
func countSlept(d *Decision, ns nodeState, k int) int {
	n := 0
	for i, id := range d.CandIDs {
		b := idBit(id)
		if ns.sleep&b != 0 && ns.done&b == 0 && d.affordable(i, k) {
			n++
		}
	}
	return n
}
