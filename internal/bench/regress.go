// Benchmark-regression harness: metric collection, JSON baselines, and the
// comparator that fails when a metric regresses past tolerance versus the
// committed baseline (BENCH_<n>.json at the repository root).
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"threads/internal/analysis"
	"threads/internal/checker"
	"threads/internal/core"
	"threads/internal/explore"
	"threads/internal/workload"
)

// Metric is one measured quantity in a baseline.
//
// Stable metrics are machine-independent — simulator instruction counts,
// deterministic-seed fast-path fractions, allocations per operation — and
// are enforced by default; timed metrics (wall-clock ns/op) vary across
// hosts and are enforced only on demand (threadsbench -timed), since a
// committed baseline is usually replayed on different hardware.
type Metric struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Better string  `json:"better"` // "lower" or "higher"
	Stable bool    `json:"stable"`
	// Slack is an absolute allowance added on top of the relative
	// tolerance, for metrics whose baseline is at or near zero (e.g.
	// allocs/op 0, where any relative tolerance is vacuous).
	Slack float64 `json:"slack,omitempty"`
}

// Baseline is a named set of metrics, serialized as BENCH_<n>.json.
//
// Schema 1 carries scalar metrics only; schema 2 adds per-core-count
// scaling curves (see sweep.go). A schema-1 file read by schema-2 code
// simply has no curves, and unknown fields are ignored on the way back, so
// the two schemas interoperate in both directions.
type Baseline struct {
	Schema  int      `json:"schema"`
	Note    string   `json:"note,omitempty"`
	Metrics []Metric `json:"metrics"`
	Curves  []Curve  `json:"curves,omitempty"`
}

// Regression describes one metric that got worse than tolerance allows.
type Regression struct {
	Name      string
	Base, Cur float64
	Better    string
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: baseline %.4g, current %.4g (%s is better)",
		r.Name, r.Base, r.Cur, r.Better)
}

// Compare checks cur against base and returns every metric that regressed
// by more than tol (a fraction: 0.10 = 10%) plus the metric's absolute
// slack. Metrics present in base but missing from cur are regressions.
// Timed (non-stable) metrics are compared only when timed is true.
func Compare(base, cur Baseline, tol float64, timed bool) []Regression {
	byName := make(map[string]Metric, len(cur.Metrics))
	for _, m := range cur.Metrics {
		byName[m.Name] = m
	}
	var regs []Regression
	for _, b := range base.Metrics {
		if !b.Stable && !timed {
			continue
		}
		c, ok := byName[b.Name]
		if !ok {
			regs = append(regs, Regression{Name: b.Name + " (missing)", Base: b.Value, Cur: 0, Better: b.Better})
			continue
		}
		worse := false
		switch b.Better {
		case "higher":
			worse = c.Value < b.Value*(1-tol)-b.Slack
		default: // "lower"
			worse = c.Value > b.Value*(1+tol)+b.Slack
		}
		if worse {
			regs = append(regs, Regression{Name: b.Name, Base: b.Value, Cur: c.Value, Better: b.Better})
		}
	}
	return regs
}

// WriteBaseline writes b to path as indented JSON.
func WriteBaseline(path string, b Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBaseline loads a baseline written by WriteBaseline.
func ReadBaseline(path string) (Baseline, error) {
	var b Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// timeAndAllocs runs f(total) once after a warmup call and reports
// wall-clock nanoseconds and heap allocations per operation. Mallocs are
// process-global, so concurrent background work would pollute the count —
// the collectors below run their workloads one at a time.
func timeAndAllocs(total int, f func(int)) (nsPerOp, allocsPerOp float64) {
	f(total / 10) // warm up pools, registries and the scheduler
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f(total)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(total),
		float64(after.Mallocs-before.Mallocs) / float64(total)
}

// CollectRegressionMetrics measures the current build's metrics for the
// regression baseline. Stable metrics use fixed sizes and seeds regardless
// of quick so the values stay comparable across collections; quick only
// shrinks the timed sweeps. The E20 step vets the module enclosing the
// working directory, so that module is found first: run outside it, the
// collection fails before any workload runs.
func CollectRegressionMetrics(quick bool) (Baseline, error) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		return Baseline{}, err
	}
	o := Options{Quick: quick}
	b := Baseline{
		Schema: 1,
		Note: "threadsbench regression baseline; stable metrics are " +
			"machine-independent, timed metrics are enforced only with -timed",
	}
	add := func(name string, v float64, better string, stable bool, slack float64) {
		b.Metrics = append(b.Metrics, Metric{Name: name, Value: v, Better: better, Stable: stable, Slack: slack})
	}

	// E1: the uncontended pair on the simulated Firefly — the paper's
	// 5-instruction claim, exactly reproducible.
	add("e1.sim_instr_pair", float64(SimPairInstr("mutex")), "lower", true, 0)

	// E2: simulated fast-path rate at 5 processors × 8 threads, fixed
	// seed and size — deterministic.
	res, err := workload.SimMutexContention(workload.SimContentionConfig{
		Procs: 5, Threads: 8, Iters: 100, CSWork: 20, Think: 200, Seed: 508,
	})
	if err != nil {
		return Baseline{}, fmt.Errorf("e2: %w", err)
	}
	add("e2.sim_fastpath_frac_5p8t", res.FastPathRate(), "higher", true, 0.02)

	// E6: Signal's user-code test of c on the simulated bounded buffer
	// (threadsim -workload prodcons -procs 5 -producers 4 -consumers 4),
	// as Nub calls per Signal that woke a thread — deterministic. A
	// Signal that finds c empty must stay in user code, so this sits
	// near 1; counting woken threads as still waiting sends about ten
	// Signals into the Nub per wake.
	pc, err := workload.SimProducerConsumer(workload.SimPCConfig{
		Procs: 5, Producers: 4, Consumers: 4, ItemsPerProducer: 200, Capacity: 8, Work: 200, Seed: 1,
	})
	if err != nil {
		return Baseline{}, fmt.Errorf("e6: %w", err)
	}
	add("e6.sim_signal_nub_per_wake", float64(pc.Stats.SignalNub)/float64(pc.Stats.SignalWoke), "lower", true, 0.05)

	// E11: contended Acquire/Release ladder at 8 goroutines.
	ladderTotal := o.pick(200_000, 1_000_000)
	ns, allocs := timeAndAllocs(ladderTotal, func(n int) { RunLadder(8, n) })
	add("e11.ladder8_ns_per_op", ns, "lower", false, 0)
	add("e11.ladder8_allocs_per_op", allocs, "lower", true, 0.05)

	// E12: Signal/Broadcast storm at 8 waiters.
	stormRounds := o.pick(20_000, 100_000)
	ns, allocs = timeAndAllocs(stormRounds, func(n int) { RunSignalStorm(8, n) })
	add("e12.storm8_ns_per_round", ns, "lower", false, 0)
	add("e12.storm8_allocs_per_round", allocs, "lower", true, 0.10)

	// E13: AlertP under contention at 8 workers.
	alertTotal := o.pick(50_000, 200_000)
	ns, allocs = timeAndAllocs(alertTotal, func(n int) { RunAlertPStorm(8, n) })
	add("e13.alertp8_ns_per_op", ns, "lower", false, 0)
	add("e13.alertp8_allocs_per_op", allocs, "lower", true, 0.10)

	// E17: schedule-exploration throughput and the sleep-set reduction's
	// pruning fraction, on the mutex litmus at k<=2 with POR on (serial,
	// no cache, so the run is exactly deterministic). The prune fraction
	// is a pure function of the decision tree and the independence
	// relation — stable across machines; throughput is wall-clock and
	// enforced only with -timed. Allocations per schedule are stable too:
	// they catch a return of per-step allocation in the simulator kernel.
	mlit := checker.LitmusByName("mutex")
	var expBefore, expAfter runtime.MemStats
	runtime.ReadMemStats(&expBefore)
	expStart := time.Now()
	expRep := explore.Explore(mlit, explore.Options{MaxPreemptions: 2, POR: explore.PORSleepSets})
	expElapsed := time.Since(expStart).Seconds()
	runtime.ReadMemStats(&expAfter)
	if expRep.Violation != nil || expRep.Partial {
		return Baseline{}, fmt.Errorf("e17: mutex exploration did not complete cleanly: %+v", expRep)
	}
	sched := expRep.Schedules()
	add("e17.explore_sched_per_sec", float64(sched)/expElapsed, "higher", false, 0)
	add("e17.por_prune_frac", float64(expRep.Pruned)/float64(sched+expRep.Pruned), "higher", true, 0.02)
	add("e17.explore_allocs_per_sched", float64(expAfter.Mallocs-expBefore.Mallocs)/float64(sched), "lower", true, 0.05)

	// E18: the deadline variants. A free mutex is taken before anything
	// is armed, so e18.acquire_deadline_ns times AcquireDeadline's
	// TryAcquire path on threadsbench's adopted main goroutine. Arm and
	// cancel are timed by a blocking ping-pong of two Fork'd threads whose
	// AlertPDeadline waits park until the other thread's V; its
	// steady-state allocations must be zero (each thread's timer is
	// created once and Reset afterwards; that is the stable metric).
	dlTotal := o.pick(20_000, 100_000)
	var dm core.Mutex
	dlFar := time.Now().Add(time.Hour)
	var dlErr error
	ns, _ = timeAndAllocs(dlTotal, func(n int) {
		for i := 0; i < n; i++ {
			if err := dm.AcquireDeadline(dlFar); err != nil {
				dlErr = err
				return
			}
			dm.Release()
		}
	})
	if dlErr != nil {
		return Baseline{}, fmt.Errorf("e18: AcquireDeadline: %w", dlErr)
	}
	add("e18.acquire_deadline_ns", ns, "lower", false, 0)
	ns, allocs = timeAndAllocs(20_000, func(n int) {
		runPingPong(n, func(s *core.Semaphore) {
			if err := s.AlertPDeadline(dlFar); err != nil {
				// Nothing alerts these threads and the deadline is an hour
				// away, so only a bug gets here; returning would leave the
				// other thread waiting forever.
				panic(err)
			}
		})
	})
	add("e18.deadline_pingpong_ns", ns, "lower", false, 0)
	add("e18.arm_cancel_allocs", allocs, "lower", true, 0.05)

	// Park-path allocations, measured directly: one Fork thread blocking
	// repeatedly on a semaphore. Zero-allocation parking is the headline
	// property; the cached waiter makes this exactly 0 in steady state,
	// the slack absorbs runtime noise (timer and scheduler allocations).
	parks := 20_000
	nsPark, allocsPark := timeAndAllocs(parks, func(n int) { runPingPong(n, (*core.Semaphore).P) })
	add("park.ns_per_park", nsPark, "lower", false, 0)
	add("park.allocs_per_park", allocsPark, "lower", true, 0.05)

	// E19: mixed-priority tail latency. Both runs are deterministic
	// simulator workloads (fixed seed, no wall clock), so the percentiles
	// are exact and the stable tolerance guards the priority-inheritance
	// machinery: if a scheduler change reintroduces the inversion, the
	// with-inheritance p99 blows up by the medium band's burst length.
	piOff, err := workload.SimPriorityTail(workload.DefaultPriorityConfig(false))
	if err != nil {
		return Baseline{}, fmt.Errorf("e19: %w", err)
	}
	piOn, err := workload.SimPriorityTail(workload.DefaultPriorityConfig(true))
	if err != nil {
		return Baseline{}, fmt.Errorf("e19: %w", err)
	}
	add("e19.hi_p99_instr_pi_on", float64(piOn.P99), "lower", true, 0)
	add("e19.hi_p999_instr_pi_on", float64(piOn.P999), "lower", true, 0)
	// The off/on ratio is the size of the inversion itself; it shrinking
	// toward 1 means inheritance stopped mattering (either the boost broke
	// or the workload no longer creates the hazard).
	add("e19.hi_p99_ratio_off_over_on", float64(piOff.P99)/float64(piOn.P99), "higher", true, 0)

	// E20: the static-analysis gate itself — full-repo threadsvet, all
	// analyzers over one cross-package program (summaries, entry-held
	// fixpoint, guard inference). Wall-clock, so enforced only with
	// -timed; the metric keeps the vet step cheap enough for the
	// per-commit CI path as the analysis and the repo both grow. A clean
	// repo is a precondition for collecting a baseline at all.
	vetStart := time.Now()
	vetPkgs, vetFindings, err := RunThreadsvetRepo(loader)
	if err != nil {
		return Baseline{}, fmt.Errorf("e20: %w", err)
	}
	if vetFindings != 0 {
		return Baseline{}, fmt.Errorf("e20: threadsvet reported %d findings over %d packages during baseline collection; fix or justify them first", vetFindings, vetPkgs)
	}
	add("e20.vet_ms", time.Since(vetStart).Seconds()*1e3, "lower", false, 0)

	return b, nil
}

// runPingPong forces total real parks: two Fork'd threads alternate
// through a pair of semaphores, each calling wait on its own and V on the
// other's, so every wait (after the first) blocks and every episode goes
// through the full park/wake round-trip.
func runPingPong(total int, wait func(*core.Semaphore)) {
	var a, b core.Semaphore
	b.P()
	rounds := total / 2
	if rounds == 0 {
		rounds = 1
	}
	done := make(chan struct{})
	core.Fork(func() {
		for i := 0; i < rounds; i++ {
			wait(&a)
			b.V()
		}
	})
	core.Fork(func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			wait(&b)
			a.V()
		}
	})
	<-done
}
