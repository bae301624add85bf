package explore

import (
	"testing"

	"threads/internal/checker"
)

// scanDecisions exercises the per-run enumeration bookkeeping — the
// done-marking and next-alternative search the depth-first odometer runs
// after every schedule — over a recorded decision sequence. This used to
// allocate an order slice and a cumulative-preemption slice per decision
// point (the hot loop of the whole checker); it must now be free of
// allocations.
func scanDecisions(en *engine, dec []Decision) int {
	found := 0
	for j := range en.path {
		en.path[j] = nodeState{}
	}
	for j := len(dec) - 1; j >= 0; j-- {
		d := &dec[j]
		en.path[j].done |= idBit(d.CandIDs[d.Chosen])
		for {
			alt := en.nextAlt(d, en.path[j])
			if alt < 0 {
				break
			}
			en.path[j].done |= idBit(d.CandIDs[alt])
			found++
		}
	}
	return found
}

func recordedDecisions(t testing.TB, name string) []Decision {
	lit := checker.LitmusByName(name)
	if lit == nil {
		t.Fatalf("litmus %s missing", name)
	}
	h := newRunner()
	defer h.close()
	var rec recorder
	res := h.run(lit, &rec)
	if len(res.Decisions) == 0 {
		t.Fatal("run recorded no decisions")
	}
	return res.Decisions
}

// TestEnumerationScanAllocationFree pins the property the scratch-buffer
// rework bought: enumerating every untried alternative across a full
// decision record allocates nothing.
func TestEnumerationScanAllocationFree(t *testing.T) {
	dec := recordedDecisions(t, "mutex")
	en := &engine{k: 1, path: make([]nodeState, len(dec))}
	if scanDecisions(en, dec) == 0 {
		t.Fatal("scan found no alternatives; the fixture is degenerate")
	}
	allocs := testing.AllocsPerRun(100, func() {
		scanDecisions(en, dec)
	})
	if allocs != 0 {
		t.Errorf("enumeration scan allocates %.1f objects per run, want 0", allocs)
	}
}

// BenchmarkBacktrackScan measures the same loop; with -benchmem it shows
// 0 B/op where the slice-per-decision implementation paid two allocations
// per decision point per schedule.
func BenchmarkBacktrackScan(b *testing.B) {
	dec := recordedDecisions(b, "mutex")
	en := &engine{k: 1, path: make([]nodeState, len(dec))}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanDecisions(en, dec)
	}
}

// BenchmarkExploreMutexK1 is the end-to-end figure: one complete k<=1
// bounded-exhaustive exploration of the mutex litmus per iteration.
func BenchmarkExploreMutexK1(b *testing.B) {
	lit := checker.LitmusByName("mutex")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := Explore(lit, Options{MaxPreemptions: 1})
		if rep.Violation != nil {
			b.Fatalf("violation: %v", rep.Violation)
		}
	}
}

// BenchmarkExploreMutexK1POR is the same exploration with sleep sets on.
func BenchmarkExploreMutexK1POR(b *testing.B) {
	lit := checker.LitmusByName("mutex")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := Explore(lit, Options{MaxPreemptions: 1, POR: PORSleepSets})
		if rep.Violation != nil {
			b.Fatalf("violation: %v", rep.Violation)
		}
	}
}

// TestReusedRunAllocationFree: a run on a reused runner allocates nothing.
// For every registry litmus, clean and broken, one runner exhausts each
// bound k<=1 with sleep sets, and then re-runs the bound's last
// non-violating schedule, once keeping the first half of the last run's
// decisions and once from the root. The actions the run emits, its
// litmus's Build, the recorder's arenas and the trace check must all reuse
// what the runs before them made. A bound whose every schedule violates
// has nothing to re-run.
func TestReusedRunAllocationFree(t *testing.T) {
	h := newRunner()
	defer h.close()
	o := Options{POR: PORSleepSets}
	for _, lit := range checker.Registry() {
		for k := 0; k <= 1; k++ {
			en := newEngine(lit, &o, &boundShared{done: make(chan struct{})}, k, h)
			var clean []int // the choices of the bound's last non-violating run
			found := false
			var ks KStats
			keep := 0
			for {
				res := en.run(keep)
				if res.Violation != nil {
					break
				}
				found, clean = true, clean[:0]
				for _, d := range res.Decisions {
					clean = append(clean, d.Chosen)
				}
				var ok bool
				if keep, ok = en.backtrack(&res, 0, &ks); !ok {
					break
				}
			}
			if !found {
				t.Logf("%s k=%d: every schedule violates", lit.Name, k)
				continue
			}
			en.forced = clean
			if res := en.run(0); res.Violation != nil || res.Diverged || len(res.Decisions) != len(clean) {
				t.Fatalf("%s k=%d: the re-run schedule diverged or violates: %v", lit.Name, k, res.Violation)
			}
			for _, keep := range []int{len(clean) / 2, 0} {
				if n := testing.AllocsPerRun(5, func() { en.run(keep) }); n != 0 {
					t.Errorf("%s k=%d: a run keeping %d of %d decisions allocates %.0f objects, want 0",
						lit.Name, k, keep, len(clean), n)
				}
			}
		}
	}
}
