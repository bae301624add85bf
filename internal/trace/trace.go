// Package trace validates implementation executions against the formal
// specification.
//
// internal/simthreads (and any other instrumented implementation) emits a
// spec.Action at each operation's linearization point — the instant, always
// inside the Nub spin lock or at the fast-path atomic instruction, at which
// the operation's visible effect occurs. Because the actions of the
// interface are atomic and totally ordered by their linearization points,
// the emitted sequence is the sequential execution that serializability
// guarantees exists; this package replays that sequence through the
// specification's state machine and reports the first clause it violates.
//
// The checks are exactly the specification's safety clauses:
//
//   - REQUIRES: Release and Wait's Enqueue only by the mutex holder.
//   - WHEN at the linearization: Acquire/Resume fire only on a NIL mutex, P
//     only on an available semaphore, AlertResume.Raise/AlertP.Raise only
//     with SELF in alerts.
//   - ENSURES-consistency: TestAlert's result equals SELF's membership in
//     alerts; Signal removes only current members of c.
//   - No wakeup without an unblocking event: a thread's Resume is accepted
//     only if some Signal or Broadcast on c occurred after its Enqueue.
//     This is the strongest check Signal's weak postcondition
//     ((c' = {}) | (c' ⊆ c)) permits: the specification deliberately allows
//     one Signal to release many racing waiters, so the checker may not
//     insist on one-wakeup-per-Signal — only that no thread resumes out of
//     thin air.
//
// A run that replays cleanly is evidence for experiment E9: the
// implementation's observable behavior is among those the specification
// admits.
package trace

import (
	"fmt"

	"threads/internal/spec"
)

// Event is one linearized action with its global sequence number. It
// mirrors sim.Event but is independent of the simulator so recorded traces
// from any source can be checked.
type Event struct {
	Seq    uint64
	Thread string // diagnostic label
	Action spec.Action
}

// condState tracks one condition variable during replay.
type condState struct {
	// members maps each waiting thread to the Seq of its Enqueue.
	members map[spec.ThreadID]uint64
	// lastUnblock is the Seq of the most recent Signal or Broadcast.
	lastUnblock uint64
}

// Checker replays events against the specification. The zero value is not
// ready; use New.
type Checker struct {
	mutexes map[spec.MutexID]spec.ThreadID
	sems    map[spec.SemID]bool // true = unavailable
	conds   map[spec.CondID]*condState
	alerts  map[spec.ThreadID]bool
	pris    map[spec.ThreadID]int // effective priorities (priority extension)
	applied int
	lastSeq uint64
}

// New returns a Checker in the initial state (every mutex NIL, every
// condition {}, every semaphore available, alerts {}).
func New() *Checker {
	return &Checker{
		mutexes: map[spec.MutexID]spec.ThreadID{},
		sems:    map[spec.SemID]bool{},
		conds:   map[spec.CondID]*condState{},
		alerts:  map[spec.ThreadID]bool{},
		pris:    map[spec.ThreadID]int{},
	}
}

// Reset returns c to New's initial state, keeping its storage. A
// condition's record stays, emptied, which Apply cannot tell from an
// absent one.
func (c *Checker) Reset() {
	clear(c.mutexes)
	clear(c.sems)
	clear(c.alerts)
	clear(c.pris)
	for _, cs := range c.conds {
		clear(cs.members)
		cs.lastUnblock = 0
	}
	c.applied = 0
	c.lastSeq = 0
}

func (c *Checker) cond(id spec.CondID) *condState {
	cs, ok := c.conds[id]
	if !ok {
		cs = &condState{members: map[spec.ThreadID]uint64{}}
		c.conds[id] = cs
	}
	return cs
}

// Violation describes a specification clause an event broke.
type Violation struct {
	Seq    uint64
	Action string
	Clause string
	Detail string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("trace: event %d %s violates %s: %s", v.Seq, v.Action, v.Clause, v.Detail)
}

func (c *Checker) fail(ev Event, clause, format string, args ...any) error {
	return &Violation{
		Seq:    ev.Seq,
		Action: ev.Action.String(),
		Clause: clause,
		Detail: fmt.Sprintf(format, args...),
	}
}

// Apply replays one event; a non-nil error is a conformance violation.
func (c *Checker) Apply(ev Event) error {
	switch a := ev.Action.(type) {
	case spec.Acquire:
		if h := c.mutexes[a.M]; h != spec.NIL {
			return c.fail(ev, "Acquire WHEN m = NIL", "m%d held by t%d at the linearization", a.M, h)
		}
		c.mutexes[a.M] = a.T

	case spec.Release:
		if h := c.mutexes[a.M]; h != a.T {
			return c.fail(ev, "Release REQUIRES m = SELF", "m%d = t%d, SELF = t%d", a.M, h, a.T)
		}
		c.mutexes[a.M] = spec.NIL

	case spec.Enqueue:
		if h := c.mutexes[a.M]; h != a.T {
			return c.fail(ev, "Wait REQUIRES m = SELF", "m%d = t%d, SELF = t%d", a.M, h, a.T)
		}
		cs := c.cond(a.C)
		if _, dup := cs.members[a.T]; dup {
			return c.fail(ev, "Enqueue", "t%d enqueued twice on c%d without resuming", a.T, a.C)
		}
		cs.members[a.T] = ev.Seq
		c.mutexes[a.M] = spec.NIL

	case spec.Resume:
		return c.applyResume(ev, a.T, a.M, a.C, false)

	case spec.AlertResumeReturn:
		return c.applyResume(ev, a.T, a.M, a.C, false)

	case spec.AlertResumeRaise:
		return c.applyResume(ev, a.T, a.M, a.C, true)

	case spec.Signal:
		cs := c.cond(a.C)
		for _, t := range a.Removed {
			if _, ok := cs.members[t]; !ok {
				return c.fail(ev, "Signal ENSURES c' ⊆ c", "removed t%d not in c%d", t, a.C)
			}
		}
		cs.lastUnblock = ev.Seq

	case spec.Broadcast:
		c.cond(a.C).lastUnblock = ev.Seq

	case spec.P:
		if c.sems[a.S] {
			return c.fail(ev, "P WHEN s = available", "s%d unavailable at the linearization", a.S)
		}
		c.sems[a.S] = true

	case spec.V:
		c.sems[a.S] = false

	case spec.AlertPReturn:
		if c.sems[a.S] {
			return c.fail(ev, "AlertP RETURNS WHEN s = available", "s%d unavailable", a.S)
		}
		c.sems[a.S] = true

	case spec.AlertPRaise:
		if !c.alerts[a.T] {
			return c.fail(ev, "AlertP RAISES WHEN SELF IN alerts", "t%d not alerted", a.T)
		}
		delete(c.alerts, a.T)
		// UNCHANGED [s]: nothing else to do.

	case spec.Alert:
		c.alerts[a.Target] = true

	case spec.TestAlert:
		if want := c.alerts[a.T]; a.Result != want {
			return c.fail(ev, "TestAlert ENSURES b = (SELF IN alerts)",
				"returned %v, alerts membership %v", a.Result, want)
		}
		delete(c.alerts, a.T)

	case spec.PriBoost:
		// Boost/restore records are emitted under the target thread's
		// donation lock, so per thread they are totally ordered and each
		// must start from the value the previous transition left.
		if cur := c.pris[a.T]; cur != a.Old {
			return c.fail(ev, "PriBoost REQUIRES old = pris[t]",
				"pris[t%d] = %d, record claims old = %d", a.T, cur, a.Old)
		}
		if a.New <= a.Old {
			return c.fail(ev, "PriBoost REQUIRES new > old", "old = %d, new = %d", a.Old, a.New)
		}
		c.pris[a.T] = a.New

	case spec.PriRestore:
		if cur := c.pris[a.T]; cur != a.Old {
			return c.fail(ev, "PriRestore REQUIRES old = pris[t]",
				"pris[t%d] = %d, record claims old = %d", a.T, cur, a.Old)
		}
		if a.New >= a.Old {
			return c.fail(ev, "PriRestore REQUIRES new < old", "old = %d, new = %d", a.Old, a.New)
		}
		if a.New == 0 {
			delete(c.pris, a.T)
		} else {
			c.pris[a.T] = a.New
		}

	default:
		return c.fail(ev, "unknown action", "unhandled action type %T", ev.Action)
	}
	c.applied++
	return nil
}

func (c *Checker) applyResume(ev Event, t spec.ThreadID, m spec.MutexID, cid spec.CondID, raise bool) error {
	if h := c.mutexes[m]; h != spec.NIL {
		return c.fail(ev, "Resume WHEN m = NIL", "m%d held by t%d at the linearization", m, h)
	}
	cs := c.cond(cid)
	enq, ok := cs.members[t]
	if !ok {
		return c.fail(ev, "Resume", "t%d resumed from c%d without a matching Enqueue", t, cid)
	}
	if raise {
		if !c.alerts[t] {
			return c.fail(ev, "AlertResume RAISES WHEN SELF IN alerts", "t%d not alerted", t)
		}
		delete(c.alerts, t) // alerts' = delete(alerts, SELF)
	} else {
		if cs.lastUnblock <= enq {
			return c.fail(ev, "Resume WHEN NOT (SELF IN c)",
				"t%d resumed with no Signal/Broadcast on c%d after its Enqueue (enqueued at %d, last unblock at %d): a wakeup out of thin air",
				t, cid, enq, cs.lastUnblock)
		}
	}
	delete(cs.members, t) // departure from c (for raise: c' = delete(c, SELF))
	c.mutexes[m] = t
	c.applied++
	return nil
}

// Feed streams one stamp-ordered batch into the checker, carrying state
// across batches: episodic collection (run, quiesce, collect, feed, repeat)
// replays arbitrarily long executions in bounded memory. Seqs must be
// strictly increasing within and across batches — the global stamp counter
// guarantees this for honestly merged runtime traces, so a regression
// (records lost, shards merged unsorted, a ring collected twice) surfaces
// here instead of as a meaningless state-machine verdict.
func (c *Checker) Feed(events []Event) error {
	for _, ev := range events {
		if ev.Seq <= c.lastSeq {
			return &Violation{
				Seq:    ev.Seq,
				Action: ev.Action.String(),
				Clause: "trace well-formedness",
				Detail: fmt.Sprintf("seq %d not greater than previously fed seq %d", ev.Seq, c.lastSeq),
			}
		}
		c.lastSeq = ev.Seq
		if err := c.Apply(ev); err != nil {
			return err
		}
	}
	return nil
}

// CheckAll replays a whole trace, returning the count of events accepted
// and the first violation, if any.
func CheckAll(events []Event) (int, error) { return New().CheckAll(events) }

// CheckAll is the package's CheckAll on c's storage: it resets c, then
// replays the whole trace.
func (c *Checker) CheckAll(events []Event) (int, error) {
	c.Reset()
	for _, ev := range events {
		if err := c.Apply(ev); err != nil {
			return c.applied, err
		}
	}
	return c.applied, nil
}
