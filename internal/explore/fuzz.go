package explore

import (
	"math/rand"
	"time"

	"threads/internal/checker"
)

// FuzzOptions parameterizes swarm scheduling: weighted-random sampling
// from the same decision tree the exhaustive mode enumerates, for the
// deep-preemption tail no practical context bound reaches.
type FuzzOptions struct {
	// Runs is the number of schedules to sample (0 with a Budget means
	// run until the budget expires).
	Runs int
	// Budget, if positive, stops sampling after that much wall-clock time.
	Budget time.Duration
	// Seed seeds the sampler; run i uses Seed+i, so any failing run is
	// independently reproducible from (litmus, seed, index) — though the
	// certificate is the preferred witness.
	Seed int64
	// PreemptProb is the per-decision probability of preempting a thread
	// that could have kept running; 0 selects the default of 0.2.
	PreemptProb float64
}

// FuzzReport summarizes a fuzzing campaign over one litmus program.
type FuzzReport struct {
	Litmus          string
	ExpectViolation bool
	Runs            int
	Decisions       int
	Violation       *Violation
	Certificate     *Certificate // minimized witness, when a violation was found
	MinimizedFrom   int
	FailingSeed     int64 // the rng seed of the violating run
	Elapsed         time.Duration
}

// Ok mirrors Report.Ok: broken litmuses must fail, clean ones must not.
// A clean fuzz pass over a broken litmus is weaker evidence than a clean
// exhaustive pass (sampling can miss), so broken litmuses should also be
// covered by Explore; Ok still holds them to finding the bug.
func (r *FuzzReport) Ok() bool {
	if r.ExpectViolation {
		return r.Violation != nil
	}
	return r.Violation == nil
}

// Fuzz samples weighted-random schedules of lit until a violation, the
// run count, or the budget is reached. The first violating schedule is
// minimized into a replayable certificate.
func Fuzz(lit *checker.Litmus, o FuzzOptions) *FuzzReport {
	start := time.Now()
	if o.PreemptProb <= 0 {
		o.PreemptProb = 0.2
	}
	rep := &FuzzReport{Litmus: lit.Name, ExpectViolation: lit.ExpectViolation}
	h := newRunner()
	defer h.close()
	rec := &recorder{rng: rand.New(rand.NewSource(o.Seed)), preemptProb: o.PreemptProb}
	for i := 0; ; i++ {
		if o.Runs > 0 && i >= o.Runs {
			break
		}
		if o.Budget > 0 && time.Since(start) > o.Budget {
			break
		}
		if o.Runs <= 0 && o.Budget <= 0 {
			break // refuse to run unbounded
		}
		seed := o.Seed + int64(i)
		rec.rng.Seed(seed)
		rec.reset(nil, 0)
		res := h.run(lit, rec)
		rep.Runs++
		rep.Decisions += len(res.Decisions)
		if res.Violation != nil {
			rep.Violation = res.Violation
			rep.FailingSeed = seed
			cert := certificateFromRun(lit, res)
			rep.MinimizedFrom = len(cert.Choices)
			rep.Certificate = Minimize(lit, cert)
			break
		}
	}
	rep.Elapsed = time.Since(start)
	return rep
}
