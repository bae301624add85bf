// Package spec is the paper's formal specification, executable.
//
// The specification's abstract state is tiny:
//
//	TYPE Mutex     = Thread INITIALLY NIL
//	TYPE Condition = SET OF Thread INITIALLY {}
//	TYPE Semaphore = (available, unavailable) INITIALLY available
//	VAR  alerts    : SET OF Thread INITIALLY {}
//
// State holds any number of each. Each ATOMIC PROCEDURE and ATOMIC ACTION
// of the interface is an Action value with three faces:
//
//   - Requires(s): the REQUIRES clause — a caller obligation; a false
//     Requires in a trace is a bug in the *client* (or, during conformance
//     checking, evidence the implementation let a client do the impossible).
//   - When(s): the WHEN clause — an enabling condition; the action cannot
//     take effect until it holds, and a scheduler (or model checker) only
//     fires enabled actions.
//   - Apply(s): the ENSURES clause as a state transformer, with any
//     non-deterministic choice (which threads a Signal removes, whether an
//     overlapping AlertP returns or raises) resolved by explicit fields on
//     the action value.
//
// For model checking, Outcomes(s) enumerates every allowed resolution of
// the non-determinism, so the checker explores all behaviors the
// specification admits.
//
// Variants: the package encodes three historical versions of the AlertWait
// specification (VariantFinal, VariantNoMNil, VariantUnchangedC) so the
// model checker can rediscover both published specification bugs — see
// experiment E7 in EXPERIMENTS.md and the paper's Discussion section.
package spec

import (
	"fmt"
	"sort"
	"strings"
)

// ThreadID names a thread in the abstract state. NIL (0) is not a thread:
// it is the value of an unheld Mutex.
type ThreadID int

// NIL is the initial (unheld) value of a Mutex.
const NIL ThreadID = 0

// MutexID, CondID and SemID name the specification variables of each type.
type (
	MutexID int
	CondID  int
	SemID   int
)

// ThreadSet is a SET OF Thread with value semantics helpers.
type ThreadSet map[ThreadID]bool

// Insert returns the set with t added (mutates and returns the receiver;
// allocate with make or Clone first).
func (s ThreadSet) Insert(t ThreadID) ThreadSet {
	s[t] = true
	return s
}

// Delete removes t.
func (s ThreadSet) Delete(t ThreadID) ThreadSet {
	delete(s, t)
	return s
}

// Contains reports membership.
func (s ThreadSet) Contains(t ThreadID) bool { return s[t] }

// Empty reports whether the set is {}.
func (s ThreadSet) Empty() bool { return len(s) == 0 }

// Clone returns an independent copy.
func (s ThreadSet) Clone() ThreadSet {
	c := make(ThreadSet, len(s))
	for t := range s {
		c[t] = true
	}
	return c
}

// Equal reports set equality.
func (s ThreadSet) Equal(o ThreadSet) bool {
	if len(s) != len(o) {
		return false
	}
	for t := range s {
		if !o[t] {
			return false
		}
	}
	return true
}

// SubsetOf reports s ⊆ o.
func (s ThreadSet) SubsetOf(o ThreadSet) bool {
	for t := range s {
		if !o[t] {
			return false
		}
	}
	return true
}

// Members returns the sorted member list.
func (s ThreadSet) Members() []ThreadID {
	out := make([]ThreadID, 0, len(s))
	for t := range s {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s ThreadSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, t := range s.Members() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", t)
	}
	b.WriteByte('}')
	return b.String()
}

// State is a value of the specification's abstract state space. Variables
// not present in a map have their INITIALLY value (NIL, {}, available), so
// the zero State is the initial state of every program. The setters store
// a variable's INITIALLY value rather than delete it: deleting a Go map's
// last entry draws the map a new hash seed, which a replay that keeps
// releasing one mutex would pay at every Release.
type State struct {
	Mutexes map[MutexID]ThreadID
	Conds   map[CondID]ThreadSet
	Sems    map[SemID]bool // true = unavailable; absent/false = available
	Alerts  ThreadSet
	// Pris holds effective scheduling priorities (the priority extension;
	// see priority.go). Absent means the INITIALLY value 0.
	Pris map[ThreadID]int
}

// NewState returns an empty (initial) state.
func NewState() *State {
	return &State{
		Mutexes: map[MutexID]ThreadID{},
		Conds:   map[CondID]ThreadSet{},
		Sems:    map[SemID]bool{},
		Alerts:  ThreadSet{},
		Pris:    map[ThreadID]int{},
	}
}

// Reset returns s to the initial state, keeping its storage: each
// condition's set stays, emptied, which no reader tells from an absent one.
func (s *State) Reset() {
	clear(s.Mutexes)
	clear(s.Sems)
	clear(s.Alerts)
	clear(s.Pris)
	for _, set := range s.Conds {
		clear(set)
	}
}

// Mutex returns the holder of m (NIL if unheld).
func (s *State) Mutex(m MutexID) ThreadID { return s.Mutexes[m] }

// SetMutex sets the holder of m.
func (s *State) SetMutex(m MutexID, t ThreadID) { s.Mutexes[m] = t }

// Cond returns the waiting set of c (never nil; lazily created).
func (s *State) Cond(c CondID) ThreadSet {
	set, ok := s.Conds[c]
	if !ok {
		set = ThreadSet{}
		s.Conds[c] = set
	}
	return set
}

// CondHas reports t ∈ c without materializing an empty set.
func (s *State) CondHas(c CondID, t ThreadID) bool {
	return s.Conds[c].Contains(t)
}

// Pri returns t's effective priority (0 if never set).
func (s *State) Pri(t ThreadID) int { return s.Pris[t] }

// SetPri sets t's effective priority.
func (s *State) SetPri(t ThreadID, pri int) { s.Pris[t] = pri }

// SemAvailable reports whether semaphore sem is available.
func (s *State) SemAvailable(sem SemID) bool { return !s.Sems[sem] }

// SetSemAvailable sets sem's availability.
func (s *State) SetSemAvailable(sem SemID, avail bool) { s.Sems[sem] = !avail }

// Clone returns a deep copy of the state.
func (s *State) Clone() *State {
	c := NewState()
	for m, t := range s.Mutexes {
		if t != NIL {
			c.Mutexes[m] = t
		}
	}
	for id, set := range s.Conds {
		if len(set) > 0 {
			c.Conds[id] = set.Clone()
		}
	}
	for id, v := range s.Sems {
		if v {
			c.Sems[id] = true
		}
	}
	c.Alerts = s.Alerts.Clone()
	for t, p := range s.Pris {
		if p != 0 {
			c.Pris[t] = p
		}
	}
	return c
}

// Equal reports state equality (with INITIALLY-default normalization).
func (s *State) Equal(o *State) bool { return s.Key() == o.Key() }

// Key returns a canonical string for the state, suitable for memoization
// in the model checker. Default-valued variables are omitted, so states
// that differ only in materialized-but-empty entries collide correctly.
func (s *State) Key() string {
	var b strings.Builder
	var ms []int
	for m, t := range s.Mutexes {
		if t != NIL {
			ms = append(ms, int(m))
		}
	}
	sort.Ints(ms)
	for _, m := range ms {
		fmt.Fprintf(&b, "m%d=%d;", m, s.Mutexes[MutexID(m)])
	}
	var cs []int
	for c, set := range s.Conds {
		if len(set) > 0 {
			cs = append(cs, int(c))
		}
	}
	sort.Ints(cs)
	for _, c := range cs {
		fmt.Fprintf(&b, "c%d=%s;", c, s.Conds[CondID(c)])
	}
	var sems []int
	for sem, v := range s.Sems {
		if v {
			sems = append(sems, int(sem))
		}
	}
	sort.Ints(sems)
	for _, sem := range sems {
		fmt.Fprintf(&b, "s%d=U;", sem)
	}
	if !s.Alerts.Empty() {
		fmt.Fprintf(&b, "a=%s;", s.Alerts)
	}
	var ps []int
	for t, p := range s.Pris {
		if p != 0 {
			ps = append(ps, int(t))
		}
	}
	sort.Ints(ps)
	for _, t := range ps {
		fmt.Fprintf(&b, "p%d=%d;", t, s.Pris[ThreadID(t)])
	}
	return b.String()
}

func (s *State) String() string {
	k := s.Key()
	if k == "" {
		return "(initial)"
	}
	return k
}
