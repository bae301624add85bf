package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"threads/internal/checker"
	"threads/internal/explore"
	"threads/internal/sim"
	"threads/internal/simthreads"
	"threads/internal/spec"
	"threads/internal/trace"
)

// The verify workload is the explorer/simulator/specification stack: a
// serial, cache-free, sleep-set exploration of a fixed litmus set, one
// broken litmus among them so certificate minimization runs too. It
// touches no Go-runtime primitive of the Threads package, so a library
// change should leave it alone, and an explorer change shows here only.
type litmusCase struct {
	name string
	k    int // context bound
}

// verifySet takes about five seconds a pass on the reference host; the
// NOTES.md file gives each entry's time and why some run at k≤1.
var verifySet = []litmusCase{
	{"mutex", 2},
	{"deadline", 2},
	{"rwlock", 1},
	{"mutex-handoff", 1},
	{"future", 1},
	{"latch", 1},
	{"prodcons", 1},
	{"phaser", 1},
	{"mpsc", 1},
	{"deadline-broken", 2},
}

// genVerify is the seeded input: the order the litmuses are explored in.
func genVerify(seed int64) []litmusCase {
	set := append([]litmusCase(nil), verifySet...)
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
	return set
}

// simRun is one run of a litmus program on the default schedule (keep the
// running thread, else the lowest id), as the explorer's first run makes.
type simRun struct {
	events []trace.Event
	steps  uint64
	err    error
}

const maxSimSteps = 2_000_000

func runDefaultSchedule(lit *checker.Litmus) simRun {
	var out simRun
	opts := lit.Sim.Opts
	opts.NubAwait = true
	cfg := sim.Config{
		Procs:    lit.Sim.Procs,
		Quantum:  lit.Sim.Quantum,
		MaxSteps: maxSimSteps,
		Choose: func(prev *sim.T, cands []*sim.T) int {
			for i, t := range cands {
				if t == prev {
					return i
				}
			}
			return 0
		},
		Trace: func(ev sim.Event) {
			if a, ok := ev.Payload.(spec.Action); ok {
				out.events = append(out.events, trace.Event{Seq: ev.Seq, Thread: ev.Thread.Name(), Action: a})
			}
		},
	}
	w, k := simthreads.NewWorldOpts(cfg, opts)
	check := lit.Sim.Build(w, k)
	out.err = k.Run()
	if out.err == nil && check != nil {
		out.err = check()
	}
	out.steps = k.Steps()
	return out
}

// verifyPass is one set-up and exploration of the whole set.
type verifyPass struct {
	round
	reports []*explore.Report
	lits    []*checker.Litmus
	sims    []simRun
}

// setupVerify is a pass's set-up: it resolves the litmuses and runs each
// once on the default schedule. With buf non-nil each layer call is
// recorded as a span.
func setupVerify(set []litmusCase, tr *tracer, buf *spanBuf) ([]*checker.Litmus, []simRun, error) {
	now := func() int64 {
		if tr == nil {
			return 0
		}
		return tr.now()
	}
	var lits []*checker.Litmus
	var sims []simRun
	var err error
	for _, c := range set {
		lit := checker.LitmusByName(c.name)
		if lit == nil {
			return nil, nil, fmt.Errorf("no litmus %q", c.name)
		}
		t0 := now()
		sr := runDefaultSchedule(lit)
		t1 := now()
		_, terr := trace.CheckAll(sr.events)
		if buf != nil {
			buf.add(spSimRun, -1, -1, t0, t1)
			buf.add(spTraceCheck, -1, -1, t1, now())
		}
		if !lit.ExpectViolation && (sr.err != nil || terr != nil) && err == nil {
			err = fmt.Errorf("%s fails on the default schedule: %v", c.name, errors.Join(sr.err, terr))
		}
		lits = append(lits, lit)
		sims = append(sims, sr)
	}
	return lits, sims, err
}

// runVerifyPass sets up (see setupVerify), explores every litmus (timed)
// and checks every verdict. With buf non-nil each layer call is recorded as
// a span.
func runVerifyPass(set []litmusCase, tr *tracer, buf *spanBuf) verifyPass {
	var p verifyPass
	now := func() int64 {
		if tr == nil {
			return 0
		}
		return tr.now()
	}
	base := heapBaseline()
	start := time.Now()
	p.lits, p.sims, p.err = setupVerify(set, tr, buf)
	p.setup = time.Since(start)
	if p.lits == nil {
		return p
	}

	ph := beginTimed(base)
	for i, c := range set {
		t0 := now()
		s := time.Now()
		rep := explore.Explore(p.lits[i], explore.Options{MaxPreemptions: c.k, POR: explore.PORSleepSets, Workers: 1})
		p.latUS = append(p.latUS, float32(time.Since(s).Nanoseconds())/1e3/float32(max(rep.Runs, 1)))
		if buf != nil {
			buf.add(spExplore, -1, -1, t0, now())
		}
		p.ops += rep.Runs
		p.reports = append(p.reports, rep)
	}
	ph.end(&p.round)

	vstart := time.Now()
	for i, rep := range p.reports {
		p.attempted++
		if err := checkVerdict(p.lits[i], rep); err != nil {
			p.failed++
			if p.err == nil {
				p.err = err
			}
		}
	}
	p.verify = p.timed + time.Since(vstart)
	p.finish()
	return p
}

// checkVerdict requires the verdict the litmus expects and, for a broken
// litmus, a minimized certificate that replays to the same violation kind.
func checkVerdict(lit *checker.Litmus, rep *explore.Report) error {
	if !rep.Ok() || rep.Partial {
		return fmt.Errorf("%s: verdict does not match the expectation (violation %v)", lit.Name, rep.Violation)
	}
	if !lit.ExpectViolation {
		return nil
	}
	if rep.Certificate == nil {
		return fmt.Errorf("%s: violation without a certificate", lit.Name)
	}
	res := explore.Replay(lit, rep.Certificate)
	if res.Violation == nil || res.Violation.Kind != rep.Certificate.Violation {
		return fmt.Errorf("%s: certificate does not replay to a %s violation", lit.Name, rep.Certificate.Violation)
	}
	return nil
}

// runVerify makes passes until the measured time is spent.
func runVerify(seed int64, seconds float64, out io.Writer) outcome {
	set := genVerify(seed)
	setup := func() func() { setupVerify(set, nil, nil); return func() {} }
	var setups []float64
	var rounds []round
	var spent time.Duration
	budget := time.Duration(seconds * float64(time.Second))
	for i := 0; spent < budget; i++ {
		setups = timeSetups(setups, setup)
		p := runVerifyPass(set, nil, nil)
		spent += p.setup + p.verify
		fmt.Fprintf(out, "pass %d: %v\n", i, &p.round)
		rounds = append(rounds, p.round)
		if p.err != nil {
			break
		}
	}
	o := summarize(rounds, betterQuartile)
	o.values["setup_s"] = median(setups)
	return o
}

// traceVerify is the traced run: one untraced pass for reference, then a
// traced pass with statistics on, which must leave every core counter at
// zero.
func traceVerify(seed int64, seconds float64, spansDir string, out io.Writer) outcome {
	set := genVerify(seed)
	v := layerValues()

	plain := runVerifyPass(set, nil, nil)
	goRuntimeMetrics([]round{plain.round}, v)

	tr := newTracer()
	buf := tr.buffer(64)
	var traced verifyPass
	s := withStats(func() { traced = runVerifyPass(set, tr, buf) })
	statsMetrics(s, traced.ops, 0, v)
	for i, rep := range traced.reports {
		if rep.Certificate != nil {
			t0 := tr.now()
			explore.Minimize(traced.lits[i], rep.Certificate)
			buf.add(spMinimize, -1, -1, t0, tr.now())
		}
	}
	var decisions, pruned int
	var steps, events []float64
	for i, rep := range traced.reports {
		decisions += rep.Decisions
		pruned += rep.Pruned
		steps = append(steps, float64(traced.sims[i].steps))
		events = append(events, float64(len(traced.sims[i].events)))
	}
	st := tr.selfTimes()
	runs := float64(max(traced.ops, 1))
	v["explore.runs"] = float64(traced.ops)
	v["explore.decisions_per_run"] = float64(decisions) / runs
	v["explore.prune_frac"] = float64(pruned) / float64(pruned+traced.ops)
	v["explore.us_per_run"] = sum(st[spExplore]) / 1e3 / runs
	v["explore.minimize_ms"] = sum(st[spMinimize]) / 1e6
	v["sim.run_us"] = mean(st[spSimRun]) / 1e3
	v["sim.steps_per_run"] = mean(steps)
	v["trace.check_us"] = mean(st[spTraceCheck]) / 1e3
	v["trace.events_per_run"] = mean(events)
	v["trace_overhead_frac"] = overhead([]round{plain.round}, []round{traced.round})
	fmt.Fprintf(out, "untraced pass %v, traced pass %v, core events %d\n", plain.timed, traced.timed, statsTotal(s))

	o := summarize([]round{plain.round, traced.round}, betterQuartile)
	o.values = v
	v["error_frac"] = float64(o.failed) / float64(max(o.attempted, 1))
	if err := tr.write(spansDir, fmt.Sprintf("verify-seed%d", seed)); err != nil && o.firstErr == nil {
		o.firstErr = err
	}
	return o
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}
