// Command threadsim runs workloads on the simulated Firefly multiprocessor
// and prints instruction-level statistics, and fronts the schedule-space
// model checker in internal/explore.
//
// Usage:
//
//	threadsim -workload contention -procs 5 -threads 8 -iters 500
//	threadsim -workload prodcons -procs 5 -producers 4 -consumers 4
//	threadsim -trace -record run.jsonl      # run traced, save + spec-check the trace
//	threadsim -explore -maxk 2              # enumerate all ≤2-preemption schedules
//	threadsim -fuzz -runs 5000 -cert out/   # sample random schedules, save failures
//	threadsim -replay out/mutex.cert.json   # replay a schedule certificate
//	threadsim -replay run.jsonl             # re-check a recorded trace
//
// Flag combinations are validated strictly: a flag belonging to another
// mode (for example -producers with -workload contention, or -maxk with
// -fuzz) is rejected with a usage error and exit status 2.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"threads/internal/checker"
	"threads/internal/explore"
	"threads/internal/sim"
	"threads/internal/simthreads"
	"threads/internal/spec"
	"threads/internal/trace"
	"threads/internal/workload"
)

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "threadsim:", err)
		fmt.Fprintln(os.Stderr, "run threadsim -h for usage")
		os.Exit(2)
	}
	switch cfg.mode {
	case modeReplay:
		os.Exit(runReplay(cfg))
	case modeExplore:
		os.Exit(runExplore(cfg))
	case modeFuzz:
		os.Exit(runFuzz(cfg))
	case modeTrace:
		runTraced(cfg.seed, cfg.procs, cfg.record)
	default:
		runWorkload(cfg)
	}
}

// selected returns the litmus programs an explore/fuzz invocation covers:
// the whole registry, or a comma-separated -litmus list in the order given.
func selected(c *config) []*checker.Litmus {
	if c.litmus == "all" {
		return checker.Registry()
	}
	var lits []*checker.Litmus
	for _, name := range strings.Split(c.litmus, ",") {
		lits = append(lits, checker.LitmusByName(strings.TrimSpace(name)))
	}
	return lits
}

// remaining splits a total wall-clock budget across the remaining
// litmuses; zero means unbudgeted.
func remaining(deadline time.Time, left int) time.Duration {
	if deadline.IsZero() {
		return 0
	}
	d := time.Until(deadline)
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d / time.Duration(left)
}

// writeCert saves a failing schedule certificate, returning its path.
func writeCert(dir string, cert *explore.Certificate) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := cert.Encode()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, cert.Litmus+".cert.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// summaryRow pairs a litmus with its exploration report for the -summary
// markdown writer.
type summaryRow struct {
	lit *checker.Litmus
	rep *explore.Report
}

func runExplore(c *config) int {
	lits := selected(c)
	var deadline time.Time
	if c.budget > 0 {
		deadline = time.Now().Add(c.budget)
	}
	por := explore.POROff
	if c.por == "sleepsets" {
		por = explore.PORSleepSets
	}
	fail := 0
	var rows []summaryRow
	for i, lit := range lits {
		opts := explore.Options{
			MaxPreemptions: c.maxK,
			Budget:         remaining(deadline, len(lits)-i),
			POR:            por,
			Workers:        c.workers,
		}
		if c.stateCache != "" {
			cache, err := explore.LoadStateCache(explore.CachePath(c.stateCache, lit.Name), lit.Name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "threadsim:", err)
				return 1
			}
			opts.Cache = cache
		}
		rep := explore.Explore(lit, opts)
		if opts.Cache != nil {
			if err := opts.Cache.Save(explore.CachePath(c.stateCache, lit.Name), lit.Name); err != nil {
				fmt.Fprintln(os.Stderr, "threadsim:", err)
				return 1
			}
		}
		rows = append(rows, summaryRow{lit, rep})
		status := "ok"
		if !rep.Ok() {
			status = "FAIL"
			fail++
		}
		rate := float64(rep.Schedules()) / rep.Elapsed.Seconds()
		fmt.Printf("%-14s %-4s %7d schedules, %7d runs, %9d decisions, %8.0f sched/s, %v\n",
			lit.Name, status, rep.Schedules(), rep.Runs, rep.Decisions, rate, rep.Elapsed.Round(time.Millisecond))
		for _, ks := range rep.PerK {
			fmt.Printf("    k=%d: %6d schedules, deepest %d decision points, %d pruned, %d cache hits\n",
				ks.K, ks.Schedules, ks.MaxDepth, ks.Pruned, ks.CacheHits)
		}
		if rep.Pruned > 0 || opts.Cache != nil || rep.Workers > 1 {
			fmt.Printf("    por pruned %d, cache hits %d (loaded %d, now %d entries), %d workers\n",
				rep.Pruned, rep.CacheHits, rep.CacheLoaded, rep.CacheEntries, rep.Workers)
		}
		if rep.Partial {
			fmt.Printf("    partial: wall-clock budget exhausted before the space\n")
		}
		if rep.Violation != nil {
			fmt.Printf("    violation (%s): %s\n", rep.Violation.Kind, rep.Violation.Detail)
			if rep.Certificate != nil {
				fmt.Printf("    certificate: %d forced decisions (minimized from %d)\n",
					len(rep.Certificate.Choices), rep.MinimizedFrom)
				if c.certDir != "" {
					path, err := writeCert(c.certDir, rep.Certificate)
					if err != nil {
						fmt.Fprintln(os.Stderr, "threadsim:", err)
						return 1
					}
					fmt.Printf("    saved: %s (threadsim -replay %s)\n", path, path)
				}
			}
			if lit.ExpectViolation {
				fmt.Printf("    expected: this litmus is intentionally broken; the checker has teeth\n")
			}
		} else if lit.ExpectViolation {
			fmt.Printf("    FAIL: intentionally broken litmus explored clean — checker regression\n")
		}
	}
	if c.summary != "" {
		if err := writeSummary(c.summary, c.maxK, rows, fail); err != nil {
			fmt.Fprintln(os.Stderr, "threadsim:", err)
			return 1
		}
	}
	if fail > 0 {
		fmt.Printf("explore: %d of %d litmus programs FAILED\n", fail, len(lits))
		return 1
	}
	fmt.Printf("explore: all %d litmus programs ok at k<=%d\n", len(lits), c.maxK)
	return 0
}

// writeSummary appends a markdown exploration report to path — the format
// GitHub renders when the path is $GITHUB_STEP_SUMMARY.
func writeSummary(path string, maxK int, rows []summaryRow, fail int) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "## Schedule exploration (k ≤ %d)\n\n", maxK)
	fmt.Fprintf(f, "| litmus | status | schedules | runs | decisions | per bound | elapsed | notes |\n")
	fmt.Fprintf(f, "|---|---|---:|---:|---:|---|---:|---|\n")
	total := 0
	for _, r := range rows {
		rep := r.rep
		total += rep.Schedules()
		status := "ok"
		if !rep.Ok() {
			status = "**FAIL**"
		}
		var perK []string
		for _, ks := range rep.PerK {
			perK = append(perK, fmt.Sprintf("k%d: %d", ks.K, ks.Schedules))
		}
		var notes []string
		if rep.Violation != nil {
			note := fmt.Sprintf("%s violation", rep.Violation.Kind)
			if r.lit.ExpectViolation {
				note += " (expected)"
			}
			notes = append(notes, note)
		} else if r.lit.ExpectViolation {
			notes = append(notes, "broken litmus explored clean")
		}
		if rep.Partial {
			notes = append(notes, "partial: budget hit")
		}
		fmt.Fprintf(f, "| %s | %s | %d | %d | %d | %s | %s | %s |\n",
			r.lit.Name, status, rep.Schedules(), rep.Runs, rep.Decisions,
			strings.Join(perK, ", "), rep.Elapsed.Round(time.Millisecond),
			strings.Join(notes, "; "))
	}
	if fail > 0 {
		fmt.Fprintf(f, "\n**%d of %d litmus programs failed.**\n\n", fail, len(rows))
	} else {
		fmt.Fprintf(f, "\n%d schedules visited; all %d litmus programs ok.\n\n", total, len(rows))
	}
	return nil
}

func runFuzz(c *config) int {
	lits := selected(c)
	var deadline time.Time
	if c.budget > 0 {
		deadline = time.Now().Add(c.budget)
	}
	fail := 0
	for i, lit := range lits {
		rep := explore.Fuzz(lit, explore.FuzzOptions{
			Runs:   c.runs,
			Budget: remaining(deadline, len(lits)-i),
			Seed:   c.seed,
		})
		status := "ok"
		if !rep.Ok() {
			status = "FAIL"
			fail++
		}
		rate := float64(rep.Runs) / rep.Elapsed.Seconds()
		fmt.Printf("%-14s %-4s %7d schedules, %9d decisions, %8.0f sched/s, %v\n",
			lit.Name, status, rep.Runs, rep.Decisions, rate, rep.Elapsed.Round(time.Millisecond))
		if rep.Violation != nil {
			fmt.Printf("    violation (%s) at seed %d: %s\n", rep.Violation.Kind, rep.FailingSeed, rep.Violation.Detail)
			if rep.Certificate != nil {
				fmt.Printf("    certificate: %d forced decisions (minimized from %d)\n",
					len(rep.Certificate.Choices), rep.MinimizedFrom)
				if c.certDir != "" {
					path, err := writeCert(c.certDir, rep.Certificate)
					if err != nil {
						fmt.Fprintln(os.Stderr, "threadsim:", err)
						return 1
					}
					fmt.Printf("    saved: %s (threadsim -replay %s)\n", path, path)
				}
			}
			if lit.ExpectViolation {
				fmt.Printf("    expected: this litmus is intentionally broken; the sampler has teeth\n")
			}
		} else if lit.ExpectViolation {
			fmt.Printf("    FAIL: intentionally broken litmus sampled clean — increase -runs\n")
		}
	}
	if fail > 0 {
		fmt.Printf("fuzz: %d of %d litmus programs FAILED\n", fail, len(lits))
		return 1
	}
	fmt.Printf("fuzz: all %d litmus programs ok\n", len(lits))
	return 0
}

// runReplay handles -replay for both artifact kinds: a schedule
// certificate re-executes its litmus under the recorded schedule and must
// reproduce the recorded violation; a JSON-Lines trace is re-checked
// against the specification.
func runReplay(c *config) int {
	data, err := os.ReadFile(c.replayPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "threadsim:", err)
		return 1
	}
	if explore.IsCertificate(data) {
		cert, _ := explore.DecodeCertificate(data)
		lit := checker.LitmusByName(cert.Litmus)
		if lit == nil {
			fmt.Fprintf(os.Stderr, "threadsim: certificate names unknown litmus %q\n", cert.Litmus)
			return 1
		}
		res := explore.Replay(lit, cert)
		fmt.Printf("%s: litmus %s, %d forced decisions, %d not applied, %d decision points, %d instructions\n",
			c.replayPath, cert.Litmus, len(cert.Choices), res.Unapplied, len(res.Decisions), res.Steps)
		if res.Unapplied > 0 {
			// A choice that names no candidate at its step, or a step the
			// run never reaches, means the certificate no longer describes
			// this litmus; whatever the run did, it is not the recorded
			// schedule.
			fmt.Printf("FAILED: %d of %d certificate choices did not apply (litmus changed since recording?)\n",
				res.Unapplied, len(cert.Choices))
			return 1
		}
		switch {
		case res.Violation == nil && cert.Violation == "":
			fmt.Printf("schedule replayed clean\n")
			return 0
		case res.Violation != nil && res.Violation.Kind == cert.Violation:
			fmt.Printf("reproduced the recorded %s violation:\n  %s\n", res.Violation.Kind, res.Violation.Detail)
			return 0
		case res.Violation != nil:
			fmt.Printf("violation (%s), but the certificate recorded %q:\n  %s\n",
				res.Violation.Kind, cert.Violation, res.Violation.Detail)
			return 1
		default:
			fmt.Printf("FAILED to reproduce the recorded %q violation (litmus changed since recording?)\n", cert.Violation)
			return 1
		}
	}
	events, err := trace.Read(strings.NewReader(string(data)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "threadsim:", err)
		return 1
	}
	n, err := trace.CheckAll(events)
	if err != nil {
		fmt.Printf("CONFORMANCE VIOLATION after %d events:\n  %v\n", n, err)
		return 1
	}
	fmt.Printf("%s: all %d actions conform to the formal specification\n", c.replayPath, n)
	return 0
}

func runWorkload(c *config) {
	switch c.workload {
	case "contention":
		res, err := workload.SimMutexContention(workload.SimContentionConfig{
			Procs: c.procs, Threads: c.threads, Iters: c.iters,
			CSWork: c.csWork, Think: c.think, Seed: c.seed,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "threadsim:", err)
			os.Exit(1)
		}
		ops := float64(c.threads * c.iters)
		fmt.Printf("contention: %d procs, %d threads, %d iterations each\n", c.procs, c.threads, c.iters)
		fmt.Printf("  makespan          %d instructions (%.0f µs MicroVAX II)\n", res.Makespan, res.Micros)
		fmt.Printf("  per operation     %.2f µs\n", res.Micros/ops)
		fmt.Printf("  fast-path rate    %.1f%%\n", res.FastPathRate()*100)
		fmt.Printf("  acquire fast/nub  %d / %d (parks %d)\n",
			res.Stats.AcquireFast, res.Stats.AcquireNub, res.Stats.AcquirePark)
		fmt.Printf("  release fast/nub  %d / %d\n", res.Stats.ReleaseFast, res.Stats.ReleaseNub)
		fmt.Printf("  processor util    %s\n", formatUtil(res.Utilization))
	case "prodcons":
		res, err := workload.SimProducerConsumer(workload.SimPCConfig{
			Procs: c.procs, Producers: c.producers, Consumers: c.consumers,
			ItemsPerProducer: c.items, Capacity: c.capacity, Work: c.think, Seed: c.seed,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "threadsim:", err)
			os.Exit(1)
		}
		fmt.Printf("prodcons: %d procs, %d producers, %d consumers, %d items\n",
			c.procs, c.producers, c.consumers, res.Items)
		fmt.Printf("  makespan        %d instructions (%.0f µs MicroVAX II)\n", res.Makespan, res.Micros)
		fmt.Printf("  throughput      %.0f items per simulated second\n", res.ItemsPerSecond())
		fmt.Printf("  waits parked    %d, elided %d\n", res.Stats.WaitPark, res.Stats.WaitElided)
		fmt.Printf("  signals         fast %d, nub %d, woke %d\n",
			res.Stats.SignalFast, res.Stats.SignalNub, res.Stats.SignalWoke)
		fmt.Printf("  broadcasts      fast %d, nub %d, woke %d\n",
			res.Stats.BcastFast, res.Stats.BcastNub, res.Stats.BcastWoke)
	case "priority":
		pcfg := workload.DefaultPriorityConfig(c.pi)
		pcfg.Procs = c.procs
		pcfg.Med = c.med
		if pcfg.Med == 0 {
			// The band must cover every processor or the holder is never
			// starved and the run measures nothing.
			pcfg.Med = c.procs
		}
		pcfg.Iters = c.iters
		pcfg.Seed = c.seed
		res, err := workload.SimPriorityTail(pcfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "threadsim:", err)
			os.Exit(1)
		}
		inh := "off"
		if c.pi {
			inh = "on"
		}
		fmt.Printf("priority: %d procs, %d medium threads, %d acquisitions, inheritance %s\n",
			pcfg.Procs, pcfg.Med, res.Samples, inh)
		fmt.Printf("  high-priority acquire latency (sim instructions):\n")
		fmt.Printf("  p50  %8d\n  p99  %8d\n  p999 %8d\n  max  %8d\n", res.P50, res.P99, res.P999, res.Max)
		fmt.Printf("  makespan          %d instructions\n", res.Makespan)
		fmt.Printf("  acquire fast/nub  %d / %d (parks %d)\n",
			res.Stats.AcquireFast, res.Stats.AcquireNub, res.Stats.AcquirePark)
	}
}

// formatUtil renders per-processor utilizations compactly.
func formatUtil(u []float64) string {
	parts := make([]string, len(u))
	for i, v := range u {
		parts[i] = fmt.Sprintf("p%d %.0f%%", i, v*100)
	}
	return strings.Join(parts, "  ")
}

// runTraced runs a mixed workload with tracing and replays the actions
// through the specification, optionally recording them to a file.
func runTraced(seed int64, procs int, record string) {
	var events []trace.Event
	cfg := sim.Config{
		Procs: procs, Seed: seed, Policy: sim.PolicyRandom, MaxSteps: 10_000_000,
		Trace: func(ev sim.Event) {
			if a, ok := ev.Payload.(spec.Action); ok {
				events = append(events, trace.Event{Seq: ev.Seq, Thread: ev.Thread.Name(), Action: a})
			}
		},
	}
	w, k := simthreads.NewWorld(cfg)
	m := w.NewMutex()
	c := w.NewCondition()
	var queue, consumed sim.Word
	const total = 60
	for i := 0; i < 3; i++ {
		k.Spawn("producer", func(e *sim.Env) {
			for n := 0; n < total/3; n++ {
				m.Acquire(e)
				e.Add(&queue, 1)
				m.Release(e)
				c.Signal(e)
			}
		})
	}
	for i := 0; i < 3; i++ {
		k.Spawn("consumer", func(e *sim.Env) {
			for {
				m.Acquire(e)
				for e.Load(&queue) == 0 {
					if e.Load(&consumed) >= total {
						m.Release(e)
						c.Broadcast(e)
						return
					}
					c.Wait(e, m)
				}
				e.Add(&queue, ^uint64(0))
				n := e.Add(&consumed, 1)
				m.Release(e)
				if n >= total {
					c.Broadcast(e)
					return
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "threadsim:", err)
		os.Exit(1)
	}
	if record != "" {
		f, err := os.Create(record)
		if err != nil {
			fmt.Fprintln(os.Stderr, "threadsim:", err)
			os.Exit(1)
		}
		if err := trace.Write(f, events); err != nil {
			fmt.Fprintln(os.Stderr, "threadsim:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "threadsim:", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s\n", record)
	}
	n, err := trace.CheckAll(events)
	fmt.Printf("traced run: %d linearized actions recorded\n", len(events))
	if err != nil {
		fmt.Printf("CONFORMANCE VIOLATION after %d events:\n  %v\n", n, err)
		os.Exit(1)
	}
	fmt.Printf("all %d actions conform to the formal specification\n", n)
}
