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
// The Checker holds one spec.State and judges each event with the action's
// own Requires, When, CheckEnsures and Apply. The replay adds only what the
// specification cannot say about an observed trace:
//
//   - Enqueue pairing: a thread leaves a condition (Resume,
//     AlertResume.Return or AlertResume.Raise) only after an Enqueue on it,
//     and enqueues again only after leaving.
//   - Unblock stamps: Signal's ENSURES (c' = {}) | (c' ⊆ c) leaves open
//     which members it removes, and a runtime trace does not say. So
//     Signal and Broadcast are checked and stamped, never applied: a
//     waiter leaves c when it resumes, which is accepted only if some
//     Signal or Broadcast on c is stamped after its Enqueue — no wakeup out
//     of thin air — and then judged by the Resume's own WHEN. That is the
//     strongest check the weak postcondition permits: one Signal may
//     release many racing waiters. Applying Broadcast's c' = {} at once
//     would be wrong too: a thread whose Enqueue precedes a Broadcast may
//     reach the implementation's queue after it, and a later Signal then
//     legally removes it. A leaving thread's m = NIL is tested here first,
//     in the words committed schedule certificates record.
//   - AlertResume.Raise is judged as the final specification variant, the
//     one printed, whatever variant the emitter tags.
//   - Stamp order: Feed requires strictly increasing Seqs.
//
// A run that replays cleanly is evidence for experiment E9: the
// implementation's observable behavior is among those the specification
// admits.
package trace

import (
	"fmt"
	"strings"
	"sync"

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

// waiter names thread t in condition c.
type waiter struct {
	c spec.CondID
	t spec.ThreadID
}

// Checker replays events against the specification. The zero value is not
// ready; use New.
type Checker struct {
	st *spec.State
	// enq holds the Seq of each waiter's Enqueue, and unblock the Seq of
	// each condition's most recent Signal or Broadcast.
	enq     map[waiter]uint64
	unblock map[spec.CondID]uint64
	applied int
	lastSeq uint64
}

// New returns a Checker in the initial state (every mutex NIL, every
// condition {}, every semaphore available, alerts {}).
func New() *Checker {
	return &Checker{st: spec.NewState(), enq: map[waiter]uint64{}, unblock: map[spec.CondID]uint64{}}
}

// Reset returns c to New's initial state, keeping its storage.
func (c *Checker) Reset() {
	c.st.Reset()
	clear(c.enq)
	clear(c.unblock)
	c.applied = 0
	c.lastSeq = 0
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

// violation reports a clause internal/spec found broken; its errors read
// "<clause>: <detail>".
func (c *Checker) violation(ev Event, err error) error {
	clause, detail, _ := strings.Cut(err.Error(), ": ")
	return c.fail(ev, clause, "%s", detail)
}

// Apply replays one event; a non-nil error is a conformance violation.
func (c *Checker) Apply(ev Event) error {
	a := ev.Action
	var err error
	switch r := a.(type) {
	case spec.Resume:
		err = c.leave(ev, r.T, r.M, r.C, true)
	case spec.AlertResumeReturn:
		err = c.leave(ev, r.T, r.M, r.C, true)
	case spec.AlertResumeRaise:
		err = c.leave(ev, r.T, r.M, r.C, false)
		if err == nil && r.Variant != spec.VariantFinal {
			return c.raise(ev, r)
		}
	}
	if err != nil {
		return err
	}
	if err := a.Requires(c.st); err != nil {
		return c.violation(ev, err)
	}
	if !a.When(c.st) {
		return c.notEnabled(ev, a.Kind())
	}
	switch r := a.(type) {
	case spec.Enqueue:
		w := waiter{r.C, r.T}
		if _, dup := c.enq[w]; dup {
			return c.fail(ev, "Enqueue", "t%d enqueued twice on c%d without resuming", r.T, r.C)
		}
		c.enq[w] = ev.Seq
	case spec.Signal: // checked and stamped, never applied
		if err := r.CheckEnsures(c.st); err != nil {
			return c.violation(ev, err)
		}
		c.unblock[r.C] = ev.Seq
		c.applied++
		return nil
	case spec.Broadcast:
		c.unblock[r.C] = ev.Seq
		c.applied++
		return nil
	case spec.TestAlert:
		if err := r.CheckEnsures(c.st); err != nil {
			return c.violation(ev, err)
		}
	}
	a.Apply(c.st)
	c.applied++
	return nil
}

// raise judges an AlertResume.Raise that its emitter tags with a
// historical variant as the final variant. It judges the concrete value:
// boxing the retagged action into a spec.Action would allocate at every
// such raise.
func (c *Checker) raise(ev Event, r spec.AlertResumeRaise) error {
	r.Variant = spec.VariantFinal
	if err := r.Requires(c.st); err != nil {
		return c.violation(ev, err)
	}
	if !r.When(c.st) {
		return c.notEnabled(ev, r.Kind())
	}
	r.Apply(c.st)
	c.applied++
	return nil
}

func (c *Checker) notEnabled(ev Event, kind string) error {
	return c.fail(ev, kind+" WHEN", "not enabled at the linearization; state %v", c.st)
}

// leave applies the replay's own rules to thread t's departure from
// condition cid, before the specification judges it: m = NIL, a matching
// Enqueue and, unless t raises Alerted, an unblock stamped after that
// Enqueue. A thread that returns is then taken out of c, resolving the
// Signal or Broadcast that released it.
func (c *Checker) leave(ev Event, t spec.ThreadID, m spec.MutexID, cid spec.CondID, returns bool) error {
	if h := c.st.Mutex(m); h != spec.NIL {
		return c.fail(ev, "Resume WHEN m = NIL", "m%d held by t%d at the linearization", m, h)
	}
	w := waiter{cid, t}
	enq, ok := c.enq[w]
	if !ok {
		return c.fail(ev, "Resume", "t%d resumed from c%d without a matching Enqueue", t, cid)
	}
	if returns && c.unblock[cid] <= enq {
		return c.fail(ev, "Resume WHEN NOT (SELF IN c)",
			"t%d resumed with no Signal/Broadcast on c%d after its Enqueue (enqueued at %d, last unblock at %d): a wakeup out of thin air",
			t, cid, enq, c.unblock[cid])
	}
	delete(c.enq, w)
	if returns {
		c.st.Conds[cid].Delete(t)
	}
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
			return c.fail(ev, "trace well-formedness", "seq %d not greater than previously fed seq %d", ev.Seq, c.lastSeq)
		}
		c.lastSeq = ev.Seq
		if err := c.Apply(ev); err != nil {
			return err
		}
	}
	return nil
}

// checkers recycles the package CheckAll's checkers: a replay's state is
// several maps, which a caller replaying many short traces would otherwise
// allocate for every one.
var checkers = sync.Pool{New: func() any { return New() }}

// CheckAll replays a whole trace, returning the count of events accepted
// and the first violation, if any.
func CheckAll(events []Event) (int, error) {
	c := checkers.Get().(*Checker)
	defer checkers.Put(c)
	return c.CheckAll(events)
}

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
