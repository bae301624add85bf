package spec

import "fmt"

// Variant selects which historical version of the AlertWait specification
// the actions obey. The paper's Discussion section records three:
//
//   - VariantNoMNil: the first released specification, whose AlertResume
//     RAISES clause lacked "m = NIL &" — found to be wrong "in less than an
//     hour by someone with no prior knowledge of either the interface or
//     the specification technique" (it lets an alerted thread seize a held
//     mutex).
//   - VariantUnchangedC: the next version, which required UNCHANGED [c]
//     when AlertWait raised Alerted. It survived "more than a year of use"
//     until Greg Nelson observed that c could then contain threads no
//     longer blocked on it, so a Signal could choose a departed thread and
//     wake nobody.
//   - VariantFinal: the specification as printed, with c' = delete(c, SELF)
//     on the Alerted path.
type Variant int

const (
	VariantFinal Variant = iota
	VariantNoMNil
	VariantUnchangedC
)

func (v Variant) String() string {
	switch v {
	case VariantFinal:
		return "final"
	case VariantNoMNil:
		return "no-m-nil"
	case VariantUnchangedC:
		return "unchanged-c"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Action is one ATOMIC PROCEDURE or ATOMIC ACTION of the interface.
type Action interface {
	// Kind is the action's name in the specification.
	Kind() string
	// Self is the executing thread (the specification's SELF).
	Self() ThreadID
	// Requires checks the REQUIRES clause; a non-nil error means the
	// caller violated its obligation and the specification constrains
	// nothing.
	Requires(s *State) error
	// When reports whether the WHEN clause holds (the action is enabled).
	When(s *State) bool
	// Apply performs the ENSURES transition in place. Callers must have
	// checked Requires and When. Non-deterministic choices are resolved
	// by fields on the concrete action.
	Apply(s *State)
	// Outcomes enumerates the post-states the ENSURES clause admits from
	// s (each an independent clone), covering every resolution of the
	// action's non-determinism. Empty if the action is not enabled.
	Outcomes(s *State) []*State
	fmt.Stringer
}

// deterministic wraps the common case: one enabled outcome.
func deterministicOutcomes(a Action, s *State) []*State {
	if !a.When(s) {
		return nil
	}
	post := s.Clone()
	a.Apply(post)
	return []*State{post}
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

// Acquire: WHEN m = NIL ENSURES m' = SELF.
type Acquire struct {
	T ThreadID
	M MutexID
}

func (a Acquire) Kind() string               { return "Acquire" }
func (a Acquire) Self() ThreadID             { return a.T }
func (a Acquire) Requires(*State) error      { return nil }
func (a Acquire) When(s *State) bool         { return s.Mutex(a.M) == NIL }
func (a Acquire) Apply(s *State)             { s.SetMutex(a.M, a.T) }
func (a Acquire) Outcomes(s *State) []*State { return deterministicOutcomes(a, s) }
func (a Acquire) String() string             { return fmt.Sprintf("Acquire(t%d, m%d)", a.T, a.M) }

// Release: REQUIRES m = SELF ENSURES m' = NIL.
type Release struct {
	T ThreadID
	M MutexID
}

func (a Release) Kind() string   { return "Release" }
func (a Release) Self() ThreadID { return a.T }
func (a Release) Requires(s *State) error {
	if h := s.Mutex(a.M); h != a.T {
		return fmt.Errorf("Release REQUIRES m = SELF: m%d = %d, SELF = %d", a.M, h, a.T)
	}
	return nil
}
func (a Release) When(*State) bool           { return true }
func (a Release) Apply(s *State)             { s.SetMutex(a.M, NIL) }
func (a Release) Outcomes(s *State) []*State { return deterministicOutcomes(a, s) }
func (a Release) String() string             { return fmt.Sprintf("Release(t%d, m%d)", a.T, a.M) }

// ---------------------------------------------------------------------------
// Condition: Wait = COMPOSITION OF Enqueue; Resume
// ---------------------------------------------------------------------------

// Enqueue: REQUIRES m = SELF ENSURES (c' = insert(c, SELF)) & (m' = NIL).
// (For AlertWait's Enqueue, additionally UNCHANGED [alerts] — which Apply
// preserves trivially.)
type Enqueue struct {
	T ThreadID
	M MutexID
	C CondID
}

func (a Enqueue) Kind() string   { return "Enqueue" }
func (a Enqueue) Self() ThreadID { return a.T }
func (a Enqueue) Requires(s *State) error {
	if h := s.Mutex(a.M); h != a.T {
		return fmt.Errorf("Enqueue (Wait) REQUIRES m = SELF: m%d = %d, SELF = %d", a.M, h, a.T)
	}
	return nil
}
func (a Enqueue) When(*State) bool { return true }
func (a Enqueue) Apply(s *State) {
	s.Cond(a.C).Insert(a.T)
	s.SetMutex(a.M, NIL)
}
func (a Enqueue) Outcomes(s *State) []*State { return deterministicOutcomes(a, s) }
func (a Enqueue) String() string             { return fmt.Sprintf("Enqueue(t%d, m%d, c%d)", a.T, a.M, a.C) }

// Resume: WHEN (m = NIL) & NOT (SELF IN c) ENSURES m' = SELF & UNCHANGED [c].
type Resume struct {
	T ThreadID
	M MutexID
	C CondID
}

func (a Resume) Kind() string          { return "Resume" }
func (a Resume) Self() ThreadID        { return a.T }
func (a Resume) Requires(*State) error { return nil }
func (a Resume) When(s *State) bool {
	return s.Mutex(a.M) == NIL && !s.CondHas(a.C, a.T)
}
func (a Resume) Apply(s *State)             { s.SetMutex(a.M, a.T) }
func (a Resume) Outcomes(s *State) []*State { return deterministicOutcomes(a, s) }
func (a Resume) String() string             { return fmt.Sprintf("Resume(t%d, m%d, c%d)", a.T, a.M, a.C) }

// Signal: ENSURES (c' = {}) | (c' ⊆ c). The Removed field resolves the
// non-determinism when replaying a concrete execution; Outcomes enumerates
// the interesting resolutions (remove nothing, remove any single member,
// remove everything), which suffice for the safety analyses here because
// any subset removal is a composition of single removals and Signal is
// always enabled.
type Signal struct {
	T       ThreadID
	C       CondID
	Removed []ThreadID
}

func (a Signal) Kind() string          { return "Signal" }
func (a Signal) Self() ThreadID        { return a.T }
func (a Signal) Requires(*State) error { return nil }
func (a Signal) When(*State) bool      { return true }
func (a Signal) Apply(s *State) {
	set := s.Cond(a.C)
	for _, t := range a.Removed {
		set.Delete(t)
	}
}

// CheckEnsures verifies that applying this Signal's resolution to pre gives
// a post-state permitted by ENSURES (c' = {}) | (c' ⊆ c); it reports an
// error if Removed contains a thread that was not in c (such a "removal"
// would make c' ⊄ c meaningless — the resolution must be a subset choice).
func (a Signal) CheckEnsures(pre *State) error {
	set := pre.Conds[a.C]
	for _, t := range a.Removed {
		if !set.Contains(t) {
			return fmt.Errorf("Signal ENSURES (c' = {}) | (c' ⊆ c): removed t%d, not in c%d = %s", t, a.C, set)
		}
	}
	return nil
}

func (a Signal) Outcomes(s *State) []*State {
	members := s.Conds[a.C].Members()
	// Remove nothing (c' = c is a subset of c).
	out := []*State{s.Clone()}
	// Remove any single member.
	for _, t := range members {
		post := s.Clone()
		post.Cond(a.C).Delete(t)
		out = append(out, post)
	}
	// Remove everything (c' = {}), when that differs from the above.
	if len(members) > 1 {
		post := s.Clone()
		for _, t := range members {
			post.Cond(a.C).Delete(t)
		}
		out = append(out, post)
	}
	return out
}
func (a Signal) String() string {
	return fmt.Sprintf("Signal(t%d, c%d, removed=%v)", a.T, a.C, a.Removed)
}

// Broadcast: ENSURES c' = {}.
type Broadcast struct {
	T ThreadID
	C CondID
}

func (a Broadcast) Kind() string               { return "Broadcast" }
func (a Broadcast) Self() ThreadID             { return a.T }
func (a Broadcast) Requires(*State) error      { return nil }
func (a Broadcast) When(*State) bool           { return true }
func (a Broadcast) Apply(s *State)             { delete(s.Conds, a.C) }
func (a Broadcast) Outcomes(s *State) []*State { return deterministicOutcomes(a, s) }
func (a Broadcast) String() string             { return fmt.Sprintf("Broadcast(t%d, c%d)", a.T, a.C) }

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

// P: WHEN s = available ENSURES s' = unavailable.
type P struct {
	T ThreadID
	S SemID
}

func (a P) Kind() string               { return "P" }
func (a P) Self() ThreadID             { return a.T }
func (a P) Requires(*State) error      { return nil }
func (a P) When(s *State) bool         { return s.SemAvailable(a.S) }
func (a P) Apply(s *State)             { s.SetSemAvailable(a.S, false) }
func (a P) Outcomes(s *State) []*State { return deterministicOutcomes(a, s) }
func (a P) String() string             { return fmt.Sprintf("P(t%d, s%d)", a.T, a.S) }

// V: ENSURES s' = available.
type V struct {
	T ThreadID
	S SemID
}

func (a V) Kind() string               { return "V" }
func (a V) Self() ThreadID             { return a.T }
func (a V) Requires(*State) error      { return nil }
func (a V) When(*State) bool           { return true }
func (a V) Apply(s *State)             { s.SetSemAvailable(a.S, true) }
func (a V) Outcomes(s *State) []*State { return deterministicOutcomes(a, s) }
func (a V) String() string             { return fmt.Sprintf("V(t%d, s%d)", a.T, a.S) }

// ---------------------------------------------------------------------------
// Alerts
// ---------------------------------------------------------------------------

// Alert: ENSURES alerts' = insert(alerts, t).
type Alert struct {
	T      ThreadID // caller
	Target ThreadID
}

func (a Alert) Kind() string               { return "Alert" }
func (a Alert) Self() ThreadID             { return a.T }
func (a Alert) Requires(*State) error      { return nil }
func (a Alert) When(*State) bool           { return true }
func (a Alert) Apply(s *State)             { s.Alerts.Insert(a.Target) }
func (a Alert) Outcomes(s *State) []*State { return deterministicOutcomes(a, s) }
func (a Alert) String() string             { return fmt.Sprintf("Alert(t%d -> t%d)", a.T, a.Target) }

// TestAlert: ENSURES (b = (SELF IN alerts)) & (alerts' = delete(alerts, SELF)).
// The Result field records the value returned by a concrete execution;
// CheckEnsures validates it against the pre-state.
type TestAlert struct {
	T      ThreadID
	Result bool
}

func (a TestAlert) Kind() string          { return "TestAlert" }
func (a TestAlert) Self() ThreadID        { return a.T }
func (a TestAlert) Requires(*State) error { return nil }
func (a TestAlert) When(*State) bool      { return true }
func (a TestAlert) Apply(s *State)        { s.Alerts.Delete(a.T) }

// CheckEnsures verifies b = (SELF IN alerts) against the pre-state.
func (a TestAlert) CheckEnsures(pre *State) error {
	if want := pre.Alerts.Contains(a.T); a.Result != want {
		return fmt.Errorf("TestAlert ENSURES b = (SELF IN alerts): t%d returned %v, SELF IN alerts = %v", a.T, a.Result, want)
	}
	return nil
}
func (a TestAlert) Outcomes(s *State) []*State { return deterministicOutcomes(a, s) }
func (a TestAlert) String() string {
	return fmt.Sprintf("TestAlert(t%d) = %v", a.T, a.Result)
}

// AlertPReturn is AlertP's normal case:
// RETURNS WHEN s = available ENSURES (s' = unavailable) & UNCHANGED [alerts].
type AlertPReturn struct {
	T ThreadID
	S SemID
}

func (a AlertPReturn) Kind() string               { return "AlertP.Return" }
func (a AlertPReturn) Self() ThreadID             { return a.T }
func (a AlertPReturn) Requires(*State) error      { return nil }
func (a AlertPReturn) When(s *State) bool         { return s.SemAvailable(a.S) }
func (a AlertPReturn) Apply(s *State)             { s.SetSemAvailable(a.S, false) }
func (a AlertPReturn) Outcomes(s *State) []*State { return deterministicOutcomes(a, s) }
func (a AlertPReturn) String() string             { return fmt.Sprintf("AlertP.Return(t%d, s%d)", a.T, a.S) }

// AlertPRaise is AlertP's exceptional case:
// RAISES Alerted WHEN SELF IN alerts
// ENSURES (alerts' = delete(alerts, SELF)) & UNCHANGED [s].
type AlertPRaise struct {
	T ThreadID
	S SemID
}

func (a AlertPRaise) Kind() string               { return "AlertP.Raise" }
func (a AlertPRaise) Self() ThreadID             { return a.T }
func (a AlertPRaise) Requires(*State) error      { return nil }
func (a AlertPRaise) When(s *State) bool         { return s.Alerts.Contains(a.T) }
func (a AlertPRaise) Apply(s *State)             { s.Alerts.Delete(a.T) }
func (a AlertPRaise) Outcomes(s *State) []*State { return deterministicOutcomes(a, s) }
func (a AlertPRaise) String() string             { return fmt.Sprintf("AlertP.Raise(t%d, s%d)", a.T, a.S) }

// ---------------------------------------------------------------------------
// AlertWait = COMPOSITION OF Enqueue; AlertResume — with variants.
// ---------------------------------------------------------------------------

// AlertResumeReturn is AlertResume's normal case, identical in every
// variant: RETURNS WHEN (m = NIL) & NOT (SELF IN c)
// ENSURES (m' = SELF) & UNCHANGED [c, alerts].
type AlertResumeReturn struct {
	T ThreadID
	M MutexID
	C CondID
}

func (a AlertResumeReturn) Kind() string          { return "AlertResume.Return" }
func (a AlertResumeReturn) Self() ThreadID        { return a.T }
func (a AlertResumeReturn) Requires(*State) error { return nil }
func (a AlertResumeReturn) When(s *State) bool {
	return s.Mutex(a.M) == NIL && !s.CondHas(a.C, a.T)
}
func (a AlertResumeReturn) Apply(s *State)             { s.SetMutex(a.M, a.T) }
func (a AlertResumeReturn) Outcomes(s *State) []*State { return deterministicOutcomes(a, s) }
func (a AlertResumeReturn) String() string {
	return fmt.Sprintf("AlertResume.Return(t%d, m%d, c%d)", a.T, a.M, a.C)
}

// AlertResumeRaise is AlertResume's exceptional case; its WHEN and ENSURES
// depend on the specification Variant:
//
//	VariantFinal:      WHEN (m = NIL) & (SELF IN alerts)
//	                   ENSURES (m' = SELF) & (c' = delete(c, SELF)) &
//	                           (alerts' = delete(alerts, SELF))
//	VariantNoMNil:     WHEN (SELF IN alerts)            — the missing guard
//	                   ENSURES as VariantUnchangedC
//	VariantUnchangedC: WHEN (m = NIL) & (SELF IN alerts)
//	                   ENSURES (m' = SELF) & UNCHANGED [c] &
//	                           (alerts' = delete(alerts, SELF)) — the bug
type AlertResumeRaise struct {
	T       ThreadID
	M       MutexID
	C       CondID
	Variant Variant
}

func (a AlertResumeRaise) Kind() string          { return "AlertResume.Raise" }
func (a AlertResumeRaise) Self() ThreadID        { return a.T }
func (a AlertResumeRaise) Requires(*State) error { return nil }
func (a AlertResumeRaise) When(s *State) bool {
	if !s.Alerts.Contains(a.T) {
		return false
	}
	if a.Variant == VariantNoMNil {
		return true // the missing "m = NIL &"
	}
	return s.Mutex(a.M) == NIL
}
func (a AlertResumeRaise) Apply(s *State) {
	s.SetMutex(a.M, a.T)
	s.Alerts.Delete(a.T)
	if a.Variant == VariantFinal {
		s.Cond(a.C).Delete(a.T)
	}
	// VariantUnchangedC and VariantNoMNil leave c unchanged — the thread
	// departs but remains a ghost member of the condition variable.
}
func (a AlertResumeRaise) Outcomes(s *State) []*State { return deterministicOutcomes(a, s) }
func (a AlertResumeRaise) String() string {
	return fmt.Sprintf("AlertResume.Raise[%s](t%d, m%d, c%d)", a.Variant, a.T, a.M, a.C)
}
