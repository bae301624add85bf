package explore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"threads/internal/checker"
	"threads/internal/sim"
	"threads/internal/simthreads"
)

// The engine runs every schedule on one runner, reset in place, and keeps
// the decisions of the prefix it repeats from the last run. These tests
// hold both to what they replace: a new world and kernel, and a recorder
// that records every decision.

// freshRun replays en's current forced prefix on a new runner with a new
// recorder configured as en's (sleep sets, cache and bound), keeping
// nothing.
func freshRun(en *engine) RunResult {
	h := newRunner()
	defer h.close()
	rec := &recorder{por: en.rec.por, cache: en.rec.cache, bound: en.rec.bound}
	rec.reset(append([]int(nil), en.forced...), 0)
	return h.run(en.lit, rec)
}

// sameRun reports how a reused run differs from the fresh one, or "".
func sameRun(got, want *RunResult) string {
	if len(got.Decisions) != len(want.Decisions) {
		return fmt.Sprintf("%d decisions, fresh %d", len(got.Decisions), len(want.Decisions))
	}
	for i := range got.Decisions {
		if !reflect.DeepEqual(got.Decisions[i], want.Decisions[i]) {
			return fmt.Sprintf("decision %d = %+v, fresh %+v", i, got.Decisions[i], want.Decisions[i])
		}
	}
	if len(got.Events) != len(want.Events) {
		return fmt.Sprintf("trace of %d events, fresh %d events", len(got.Events), len(want.Events))
	}
	for i := range got.Events {
		if !reflect.DeepEqual(got.Events[i], want.Events[i]) {
			return fmt.Sprintf("event %d = %+v, fresh %+v", i, got.Events[i], want.Events[i])
		}
	}
	switch {
	case got.Steps != want.Steps:
		return fmt.Sprintf("%d steps, fresh %d", got.Steps, want.Steps)
	case fmt.Sprint(got.RunErr) != fmt.Sprint(want.RunErr):
		return fmt.Sprintf("run error %v, fresh %v", got.RunErr, want.RunErr)
	case fmt.Sprint(got.Violation) != fmt.Sprint(want.Violation):
		return fmt.Sprintf("violation %v, fresh %v", got.Violation, want.Violation)
	case got.Preemptions != want.Preemptions || got.Diverged != want.Diverged || got.Aborted != want.Aborted:
		return fmt.Sprintf("preemptions %d, diverged %v, aborted %v; fresh %d, %v, %v",
			got.Preemptions, got.Diverged, got.Aborted, want.Preemptions, want.Diverged, want.Aborted)
	}
	return ""
}

// leftovers are two programs whose runs end in states the registry's runs
// at k<=1 never end in, so that the runs after them on the same runner
// start from what a reset must clear: a thread that ends with a pending
// wakeup, woken twice for one deschedule, and a deadline timer whose word
// keeps a watcher, a drain that waits for a fire no thread makes, which
// deadlocks the run. The registry's deadline litmuses reuse that timer.
func leftovers() []*checker.Litmus {
	return []*checker.Litmus{
		{Name: "pending-wakeup", Sim: checker.SimProgram{
			Procs: 2,
			Build: func(w *simthreads.World, k *simthreads.Kernel) func() error {
				sleeper := k.Spawn("sleeper", func(e *sim.Env) {
					e.Deschedule("nap")
					e.Work(1)
				})
				k.Spawn("waker", func(e *sim.Env) {
					e.MakeReady(sleeper)
					e.MakeReady(sleeper)
				})
				return nil
			},
		}},
		{Name: "orphaned-drain", Sim: checker.SimProgram{
			Procs: 2,
			Build: func(w *simthreads.World, k *simthreads.Kernel) func() error {
				dt := w.NewDeadlineTimer()
				k.Spawn("canceller", func(e *sim.Env) { dt.CancelBroken(e) })
				k.Spawn("drainer", func(e *sim.Env) { dt.CancelAndDrain(e) })
				return nil
			},
		}},
	}
}

// TestReusedRunEqualsFresh drives the engine's own search over every
// registry litmus at k<=1 with sleep sets, after the leftovers, and
// compares each run it makes on its reused runner and kept prefix with a
// fresh runner and recorder replaying the same forced prefix: decisions
// field by field, trace, steps, run error and violation. One runner serves
// every program and configuration, so each reset also follows other
// programs' runs. With a state cache the fresh run is made before the
// engine backtracks, so both meet the same entries; runs the cache cuts
// short leave threads blocked and objects held, which the next reset must
// clear. The last configuration turns on priority inheritance for every
// mutex, so that the gates' holder hints are live.
func TestReusedRunEqualsFresh(t *testing.T) {
	h := newRunner()
	defer h.close()
	for _, c := range []struct {
		name      string
		cache, pi bool
	}{{"plain", false, false}, {"cache", true, false}, {"cache+pi", true, true}} {
		runs := 0
		for _, lit := range append(leftovers(), checker.Registry()...) {
			l := *lit
			l.Sim.Opts.PriorityInheritance = l.Sim.Opts.PriorityInheritance || c.pi
			o := Options{POR: PORSleepSets}
			if c.cache {
				o.Cache = NewStateCache()
			}
			for k := 0; k <= 1; k++ {
				sh := &boundShared{done: make(chan struct{})}
				en := newEngine(&l, &o, sh, k, h)
				var ks KStats
				keep := 0
				for {
					res := en.run(keep)
					runs++
					fresh := freshRun(en)
					if d := sameRun(&res, &fresh); d != "" {
						t.Fatalf("%s %s k=%d, run %d (forced %v, %d kept): %s",
							c.name, l.Name, k, runs, en.forced, keep, d)
					}
					if res.Violation != nil {
						break // an engine stops at its first violation
					}
					var ok bool
					if keep, ok = en.backtrack(&res, 0, &ks); !ok {
						break
					}
				}
			}
		}
		t.Logf("%s: %d runs", c.name, runs)
	}
}

// TestKeptPrefixDiverges: a kept decision whose candidates differ from the
// run's marks the run Diverged, and the run records afresh from that step,
// as a fresh recorder would.
func TestKeptPrefixDiverges(t *testing.T) {
	lit := checker.LitmusByName("mutex")
	h := newRunner()
	defer h.close()
	o := Options{POR: PORSleepSets}
	en := newEngine(lit, &o, &boundShared{done: make(chan struct{})}, 1, h)
	first := en.run(0)
	n := len(first.Decisions)
	if n < 10 {
		t.Fatalf("only %d decisions", n)
	}
	en.forced = en.forced[:0]
	for _, d := range first.Decisions {
		en.forced = append(en.forced, d.Chosen)
	}
	// Decision 5 claims a candidate the run will not offer.
	const bad = 5
	en.rec.decisions[bad].CandIDs[0] = 63
	res := en.run(n)
	if !res.Diverged {
		t.Fatal("a kept decision with other candidates did not mark the run Diverged")
	}
	fresh := freshRun(en)
	fresh.Diverged = true
	if d := sameRun(&res, &fresh); d != "" {
		t.Fatalf("the diverged run did not record afresh: %s", d)
	}
	if id := res.Decisions[bad].CandIDs[0]; id == 63 {
		t.Fatalf("decision %d kept the stale candidate", bad)
	}
}

// TestReplayCountsUnappliedChoices: every committed certificate applies
// each of its choices, and a replay counts the choices it could not apply,
// whether they name a thread that is no candidate at their step or a step
// the run never reaches.
func TestReplayCountsUnappliedChoices(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.cert.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed certificates: %v", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cert, err := DecodeCertificate(data)
		if err != nil {
			t.Fatal(err)
		}
		lit := checker.LitmusByName(cert.Litmus)
		if res := Replay(lit, cert); res.Unapplied != 0 {
			t.Errorf("%s: %d of %d choices did not apply", path, res.Unapplied, len(cert.Choices))
		}
		if len(cert.Choices) == 0 {
			continue
		}
		stale := *cert
		stale.Choices = append([]Choice(nil), cert.Choices...)
		stale.Choices[0].Thread = "renamed-" + stale.Choices[0].Thread
		stale.Choices = append(stale.Choices, Choice{Step: 1 << 20, Thread: cert.Choices[0].Thread})
		if res := Replay(lit, &stale); res.Unapplied != 2 {
			t.Errorf("%s with a renamed thread and a step past the end: %d choices not applied, want 2", path, res.Unapplied)
		}
	}
}

// TestWorkerRunners explores mutex, alert and alert-broken at k<=1 with 4
// workers, with and without a shared state cache. Each worker runs on its
// own runner; one shared between goroutines is a data race that only the
// race detector sees, which is why `make race` runs this test. Without a
// cache the schedules equal the serial search's.
func TestWorkerRunners(t *testing.T) {
	for _, name := range []string{"mutex", "alert", "alert-broken"} {
		lit := checker.LitmusByName(name)
		serial := Explore(lit, Options{MaxPreemptions: 1, POR: PORSleepSets, Workers: 1, Budget: testBudget})
		for _, cache := range []*StateCache{nil, NewStateCache()} {
			rep := Explore(lit, Options{MaxPreemptions: 1, POR: PORSleepSets, Workers: 4, Cache: cache, Budget: testBudget})
			if !rep.Ok() || rep.Partial {
				t.Fatalf("%s, cache %v: verdict %v, partial %v", name, cache != nil, rep.Violation, rep.Partial)
			}
			if cache == nil && !lit.ExpectViolation && rep.Schedules() != serial.Schedules() {
				t.Errorf("%s: %d schedules with 4 workers, %d serially", name, rep.Schedules(), serial.Schedules())
			}
			if rep.Certificate != nil {
				if res := Replay(lit, rep.Certificate); res.Violation == nil || res.Unapplied != 0 {
					t.Errorf("%s: certificate replays to %v with %d choices not applied", name, res.Violation, res.Unapplied)
				}
			}
		}
	}
}
