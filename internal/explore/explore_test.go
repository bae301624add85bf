package explore

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"threads/internal/checker"
	"threads/internal/sim"
	"threads/internal/simthreads"
)

// testBudget keeps a single test from hanging CI if an enumeration
// regression blows up the schedule space; the k<=1 spaces all finish in
// a few seconds.
const testBudget = 60 * time.Second

// TestExploreCleanLitmusesK1 is the headline soundness check: exhaustive
// enumeration of every schedule with at most one preemption, for every
// correct litmus in the registry, finds zero violations — no spec
// divergence, no deadlock, no livelock, no wrong outcome.
func TestExploreCleanLitmusesK1(t *testing.T) {
	for _, lit := range checker.Registry() {
		if lit.ExpectViolation {
			continue
		}
		lit := lit
		t.Run(lit.Name, func(t *testing.T) {
			rep := Explore(lit, Options{MaxPreemptions: 1, Budget: testBudget})
			if rep.Partial {
				t.Fatalf("exploration hit the budget after %d runs; not exhaustive", rep.Runs)
			}
			if rep.Violation != nil {
				t.Fatalf("violation in a correct litmus: %v", rep.Violation)
			}
			if len(rep.PerK) != 2 || rep.PerK[0].Schedules == 0 || rep.PerK[1].Schedules == 0 {
				t.Fatalf("coverage table malformed: %+v", rep.PerK)
			}
			t.Logf("%d schedules, %d decisions, %v", rep.Runs, rep.Decisions, rep.Elapsed)
		})
	}
}

// TestExploreBrokenAlertK1 is the checker-has-teeth regression: the
// no-m-nil AlertWait bug must be caught within one preemption, as a
// conformance divergence from the specification, and the certificate must
// be minimized and must reproduce the same violation on replay.
func TestExploreBrokenAlertK1(t *testing.T) {
	lit := checker.LitmusByName("alert-broken")
	if lit == nil {
		t.Fatal("alert-broken missing from the registry")
	}
	rep := Explore(lit, Options{MaxPreemptions: 1, Budget: testBudget})
	if rep.Violation == nil {
		t.Fatalf("no violation found in %d runs; the explorer lost its teeth", rep.Runs)
	}
	if rep.Violation.Kind != "conformance" {
		t.Fatalf("violation kind = %q (%s), want conformance", rep.Violation.Kind, rep.Violation.Detail)
	}
	if !strings.Contains(rep.Violation.Detail, "no-m-nil") {
		t.Errorf("violation detail does not name the no-m-nil variant: %s", rep.Violation.Detail)
	}
	if !rep.Ok() {
		t.Error("Report.Ok() = false for a broken litmus with a violation")
	}
	cert := rep.Certificate
	if cert == nil {
		t.Fatal("violation reported without a certificate")
	}
	if len(cert.Choices) > rep.MinimizedFrom {
		t.Errorf("minimization grew the certificate: %d > %d", len(cert.Choices), rep.MinimizedFrom)
	}
	res := Replay(lit, cert)
	if res.Violation == nil || res.Violation.Kind != cert.Violation {
		t.Fatalf("certificate replay got %v, want kind %q", res.Violation, cert.Violation)
	}
}

// TestExplorePanicIsAViolation: a thread body that panics on one schedule
// is reported as a "panic" violation whose certificate replays, instead of
// crashing the sweep. The panic needs one preemption: t2 panics only if it
// runs between t1's two stores and sees the transient 1.
func TestExplorePanicIsAViolation(t *testing.T) {
	lit := &checker.Litmus{
		Name: "panics-under-preemption",
		Sim: checker.SimProgram{
			Procs: 2,
			Build: func(w *simthreads.World, k *simthreads.Kernel) func() error {
				var x sim.Word
				k.Spawn("t1", func(e *sim.Env) {
					e.Store(&x, 1)
					e.Store(&x, 0)
				})
				k.Spawn("t2", func(e *sim.Env) {
					if e.Load(&x) == 1 {
						panic("t2 saw the transient 1")
					}
				})
				return nil
			},
		},
	}
	if rep := Explore(lit, Options{MaxPreemptions: 0, Budget: testBudget}); rep.Violation != nil {
		t.Fatalf("k=0 found %v; the panic needs a preemption", rep.Violation)
	}
	rep := Explore(lit, Options{MaxPreemptions: 1, Budget: testBudget})
	if rep.Violation == nil || rep.Violation.Kind != "panic" {
		t.Fatalf("violation = %v, want kind panic", rep.Violation)
	}
	if !strings.Contains(rep.Violation.Detail, "transient 1") {
		t.Errorf("detail %q does not carry the panic value", rep.Violation.Detail)
	}
	res := Replay(lit, rep.Certificate)
	if res.Violation == nil || res.Violation.Kind != "panic" {
		t.Fatalf("certificate replay got %v, want kind panic", res.Violation)
	}
}

// TestDeterministicReplay: the same certificate produces byte-identical
// linearization traces on every replay.
func TestDeterministicReplay(t *testing.T) {
	lit := checker.LitmusByName("alert-broken")
	rep := Explore(lit, Options{MaxPreemptions: 1, Budget: testBudget})
	if rep.Certificate == nil {
		t.Fatal("no certificate to replay")
	}
	first, res1, err := ReplayTraceBytes(lit, rep.Certificate)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("replay produced an empty trace")
	}
	for i := 0; i < 3; i++ {
		again, res2, err := ReplayTraceBytes(lit, rep.Certificate)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("replay %d diverged: %d vs %d trace bytes", i, len(first), len(again))
		}
		if res1.Steps != res2.Steps || len(res1.Decisions) != len(res2.Decisions) {
			t.Fatalf("replay %d: steps %d/%d decisions %d/%d", i,
				res1.Steps, res2.Steps, len(res1.Decisions), len(res2.Decisions))
		}
	}
}

// TestCertificateRoundTrip: encode/decode preserves the certificate, and
// non-certificate JSON (such as a trace line) is rejected.
func TestCertificateRoundTrip(t *testing.T) {
	lit := checker.LitmusByName("alert-broken")
	rep := Explore(lit, Options{MaxPreemptions: 1, Budget: testBudget})
	if rep.Certificate == nil {
		t.Fatal("no certificate")
	}
	data, err := rep.Certificate.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCertificate(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Litmus != rep.Certificate.Litmus || len(back.Choices) != len(rep.Certificate.Choices) {
		t.Fatalf("round trip changed the certificate: %+v vs %+v", back, rep.Certificate)
	}
	if !IsCertificate(data) {
		t.Error("IsCertificate rejected a valid certificate")
	}
	for _, bad := range []string{
		`{"seq":1,"thread":"t1","action":{}}`, // a trace line
		`not json`,
		`{"kind":"schedule-certificate","version":99,"litmus":"mutex","choices":[]}`,
		`{"kind":"schedule-certificate","version":1,"choices":[]}`, // no litmus
	} {
		if IsCertificate([]byte(bad)) {
			t.Errorf("IsCertificate accepted %q", bad)
		}
	}
}

// TestMinimizeShrinks: a violating schedule found by heavy random
// preemption carries many incidental forced decisions; minimization must
// strip them while the failure still reproduces.
func TestMinimizeShrinks(t *testing.T) {
	lit := checker.LitmusByName("alert-broken")
	rep := Fuzz(lit, FuzzOptions{Runs: 500, Seed: 1, PreemptProb: 0.5})
	if rep.Violation == nil {
		t.Fatalf("fuzz found no violation in %d runs", rep.Runs)
	}
	if rep.MinimizedFrom < 2 {
		t.Skipf("failing schedule had only %d non-default choices; nothing to shrink", rep.MinimizedFrom)
	}
	if got := len(rep.Certificate.Choices); got >= rep.MinimizedFrom {
		t.Fatalf("minimizer did not shrink: %d choices, started from %d", got, rep.MinimizedFrom)
	}
	res := Replay(lit, rep.Certificate)
	if res.Violation == nil || res.Violation.Kind != rep.Violation.Kind {
		t.Fatalf("minimized certificate replays to %v, want kind %q", res.Violation, rep.Violation.Kind)
	}
	t.Logf("minimized %d -> %d choices", rep.MinimizedFrom, len(rep.Certificate.Choices))
}

// TestFuzzCleanMutex: random schedules of a correct litmus stay clean.
func TestFuzzCleanMutex(t *testing.T) {
	lit := checker.LitmusByName("mutex")
	rep := Fuzz(lit, FuzzOptions{Runs: 200, Seed: 42})
	if rep.Violation != nil {
		t.Fatalf("fuzz violation in a correct litmus (seed %d): %v", rep.FailingSeed, rep.Violation)
	}
	if rep.Runs != 200 {
		t.Fatalf("ran %d schedules, want 200", rep.Runs)
	}
	if !rep.Ok() {
		t.Error("FuzzReport.Ok() = false for a clean pass")
	}
}

// TestExploreK0IsSingleSchedulePerChain: with no preemptions allowed the
// enumeration still branches at free (blocking/exit) decision points, so
// the k=0 space is small but not trivial, and every litmus has one.
func TestExploreK0(t *testing.T) {
	for _, lit := range checker.Registry() {
		lit := lit
		t.Run(lit.Name, func(t *testing.T) {
			rep := Explore(lit, Options{MaxPreemptions: 0, Budget: testBudget})
			if rep.Partial {
				t.Fatal("k=0 exploration hit the budget")
			}
			if rep.Runs == 0 {
				t.Fatal("no schedules enumerated")
			}
			if lit.Sim.Procs == 1 {
				// Single-processor scheduler litmuses have no interleaving
				// decisions at all: the kernel's priority dispatch fixes the
				// whole schedule, which is precisely what they test.
				return
			}
			for _, ks := range rep.PerK {
				if ks.MaxDepth == 0 {
					t.Errorf("k=%d recorded no decision points", ks.K)
				}
			}
		})
	}
}
