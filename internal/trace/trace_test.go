package trace

import (
	"strings"
	"testing"

	"threads/internal/spec"
)

func evs(actions ...spec.Action) []Event {
	out := make([]Event, len(actions))
	for i, a := range actions {
		out[i] = Event{Seq: uint64(i + 1), Action: a}
	}
	return out
}

func TestCleanMutexTrace(t *testing.T) {
	n, err := CheckAll(evs(
		spec.Acquire{T: 1, M: 1},
		spec.Release{T: 1, M: 1},
		spec.Acquire{T: 2, M: 1},
		spec.Release{T: 2, M: 1},
	))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("applied %d events, want 4", n)
	}
}

func TestDetectsDoubleAcquire(t *testing.T) {
	_, err := CheckAll(evs(
		spec.Acquire{T: 1, M: 1},
		spec.Acquire{T: 2, M: 1},
	))
	if err == nil || !strings.Contains(err.Error(), "Acquire WHEN") {
		t.Fatalf("double acquire not detected: %v", err)
	}
}

func TestDetectsReleaseByNonHolder(t *testing.T) {
	_, err := CheckAll(evs(
		spec.Acquire{T: 1, M: 1},
		spec.Release{T: 2, M: 1},
	))
	if err == nil || !strings.Contains(err.Error(), "REQUIRES m = SELF") {
		t.Fatalf("bad release not detected: %v", err)
	}
}

func TestCleanWaitSignalTrace(t *testing.T) {
	n, err := CheckAll(evs(
		spec.Acquire{T: 1, M: 1},
		spec.Enqueue{T: 1, M: 1, C: 1},
		spec.Acquire{T: 2, M: 1},
		spec.Release{T: 2, M: 1},
		spec.Signal{T: 2, C: 1, Removed: []spec.ThreadID{1}},
		spec.Resume{T: 1, M: 1, C: 1},
		spec.Release{T: 1, M: 1},
	))
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("applied %d, want 7", n)
	}
}

func TestDetectsWakeupFromThinAir(t *testing.T) {
	// Resume with no Signal/Broadcast after the Enqueue: the lost-wakeup
	// dual — a thread left its wait though nothing released it.
	_, err := CheckAll(evs(
		spec.Acquire{T: 1, M: 1},
		spec.Enqueue{T: 1, M: 1, C: 1},
		spec.Resume{T: 1, M: 1, C: 1},
	))
	if err == nil || !strings.Contains(err.Error(), "thin air") {
		t.Fatalf("spontaneous resume not detected: %v", err)
	}
}

func TestSignalBeforeEnqueueDoesNotJustifyResume(t *testing.T) {
	// An unblocking event from *before* the Enqueue must not justify the
	// Resume: its eventcount reading preceded the commit.
	_, err := CheckAll(evs(
		spec.Signal{T: 2, C: 1},
		spec.Acquire{T: 1, M: 1},
		spec.Enqueue{T: 1, M: 1, C: 1},
		spec.Resume{T: 1, M: 1, C: 1},
	))
	if err == nil || !strings.Contains(err.Error(), "thin air") {
		t.Fatalf("stale signal accepted as justification: %v", err)
	}
}

func TestBroadcastJustifiesManyResumes(t *testing.T) {
	_, err := CheckAll(evs(
		spec.Acquire{T: 1, M: 1},
		spec.Enqueue{T: 1, M: 1, C: 1},
		spec.Acquire{T: 2, M: 1},
		spec.Enqueue{T: 2, M: 1, C: 1},
		spec.Broadcast{T: 3, C: 1},
		spec.Resume{T: 1, M: 1, C: 1},
		spec.Release{T: 1, M: 1},
		spec.Resume{T: 2, M: 1, C: 1},
		spec.Release{T: 2, M: 1},
	))
	if err != nil {
		t.Fatal(err)
	}
}

func TestOneSignalMayJustifyManyResumes(t *testing.T) {
	// The E3 behavior: the specification's weak Signal admits several
	// threads resuming after one Signal, and the checker must accept it.
	_, err := CheckAll(evs(
		spec.Acquire{T: 1, M: 1},
		spec.Enqueue{T: 1, M: 1, C: 1},
		spec.Acquire{T: 2, M: 1},
		spec.Enqueue{T: 2, M: 1, C: 1},
		spec.Signal{T: 3, C: 1, Removed: []spec.ThreadID{1}},
		spec.Resume{T: 1, M: 1, C: 1},
		spec.Release{T: 1, M: 1},
		spec.Resume{T: 2, M: 1, C: 1}, // the racer released by the same advance
		spec.Release{T: 2, M: 1},
	))
	if err != nil {
		t.Fatal(err)
	}
}

func TestDetectsSignalRemovingNonMember(t *testing.T) {
	_, err := CheckAll(evs(
		spec.Signal{T: 1, C: 1, Removed: []spec.ThreadID{7}},
	))
	if err == nil || !strings.Contains(err.Error(), "⊆ c") {
		t.Fatalf("bad removal not detected: %v", err)
	}
}

func TestDetectsEnqueueWithoutMutex(t *testing.T) {
	_, err := CheckAll(evs(
		spec.Enqueue{T: 1, M: 1, C: 1},
	))
	if err == nil || !strings.Contains(err.Error(), "REQUIRES m = SELF") {
		t.Fatalf("enqueue without mutex not detected: %v", err)
	}
}

func TestDetectsResumeOnHeldMutex(t *testing.T) {
	_, err := CheckAll(evs(
		spec.Acquire{T: 1, M: 1},
		spec.Enqueue{T: 1, M: 1, C: 1},
		spec.Signal{T: 2, C: 1},
		spec.Acquire{T: 2, M: 1},
		spec.Resume{T: 1, M: 1, C: 1}, // m held by t2
	))
	if err == nil || !strings.Contains(err.Error(), "Resume WHEN m = NIL") {
		t.Fatalf("resume on held mutex not detected: %v", err)
	}
}

func TestSemaphoreTrace(t *testing.T) {
	if _, err := CheckAll(evs(
		spec.P{T: 1, S: 1},
		spec.V{T: 2, S: 1}, // V by a different thread: legal
		spec.P{T: 2, S: 1},
		spec.V{T: 1, S: 1},
	)); err != nil {
		t.Fatal(err)
	}
	_, err := CheckAll(evs(
		spec.P{T: 1, S: 1},
		spec.P{T: 2, S: 1},
	))
	if err == nil || !strings.Contains(err.Error(), "P WHEN") {
		t.Fatalf("double P not detected: %v", err)
	}
}

func TestAlertTrace(t *testing.T) {
	if _, err := CheckAll(evs(
		spec.Alert{T: 1, Target: 2},
		spec.TestAlert{T: 2, Result: true},
		spec.TestAlert{T: 2, Result: false},
	)); err != nil {
		t.Fatal(err)
	}
	_, err := CheckAll(evs(
		spec.TestAlert{T: 2, Result: true},
	))
	if err == nil || !strings.Contains(err.Error(), "TestAlert ENSURES") {
		t.Fatalf("wrong TestAlert result not detected: %v", err)
	}
}

func TestAlertWaitRaiseTrace(t *testing.T) {
	// The corrected semantics: the Raise departs c without needing a
	// Signal, consuming the alert; a later Signal then reaches the live
	// waiter.
	if _, err := CheckAll(evs(
		spec.Acquire{T: 1, M: 1},
		spec.Enqueue{T: 1, M: 1, C: 1},
		spec.Acquire{T: 2, M: 1},
		spec.Enqueue{T: 2, M: 1, C: 1},
		spec.Alert{T: 3, Target: 1},
		spec.AlertResumeRaise{T: 1, M: 1, C: 1},
		spec.Release{T: 1, M: 1},
		spec.Signal{T: 3, C: 1, Removed: []spec.ThreadID{2}},
		spec.Resume{T: 2, M: 1, C: 1},
		spec.Release{T: 2, M: 1},
	)); err != nil {
		t.Fatal(err)
	}
	// Raise without a pending alert is a violation.
	_, err := CheckAll(evs(
		spec.Acquire{T: 1, M: 1},
		spec.Enqueue{T: 1, M: 1, C: 1},
		spec.AlertResumeRaise{T: 1, M: 1, C: 1},
	))
	if err == nil || !strings.Contains(err.Error(), "AlertResume.Raise WHEN") {
		t.Fatalf("raise without alert not detected: %v", err)
	}
}

func TestAlertPTrace(t *testing.T) {
	if _, err := CheckAll(evs(
		spec.Alert{T: 1, Target: 2},
		spec.AlertPRaise{T: 2, S: 1},
		spec.P{T: 3, S: 1}, // still available: UNCHANGED [s] held
	)); err != nil {
		t.Fatal(err)
	}
	_, err := CheckAll(evs(
		spec.AlertPRaise{T: 2, S: 1},
	))
	if err == nil {
		t.Fatal("AlertP raise without alert not detected")
	}
}

func TestViolationReportsSeqAndClause(t *testing.T) {
	_, err := CheckAll(evs(
		spec.Acquire{T: 1, M: 1},
		spec.Acquire{T: 2, M: 1},
	))
	v, ok := err.(*Violation)
	if !ok {
		t.Fatalf("error type %T, want *Violation", err)
	}
	if v.Seq != 2 || v.Clause == "" || v.Action == "" {
		t.Fatalf("violation missing context: %+v", v)
	}
}
