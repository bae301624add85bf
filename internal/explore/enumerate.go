package explore

import (
	"sync"
	"sync/atomic"
	"time"

	"threads/internal/checker"
)

// Options parameterizes bounded-exhaustive exploration.
type Options struct {
	// MaxPreemptions is the context bound: Explore widens k = 0, 1, …,
	// MaxPreemptions, enumerating at each bound every schedule with at
	// most k preemptions.
	MaxPreemptions int
	// Budget, if positive, stops exploration (marking the report partial)
	// once that much wall-clock time has elapsed.
	Budget time.Duration
	// MaxSchedules, if positive, caps the schedules run per bound.
	MaxSchedules int
	// POR selects the partial-order reduction (see dpor.go). The zero
	// value explores naively.
	POR PORMode
	// Cache, if non-nil, prunes subtrees whose state fingerprint was
	// already explored with at least as much remaining preemption budget,
	// within this call and — via LoadStateCache/Save — across processes.
	Cache *StateCache
	// Workers shards the schedule space across a worker pool; 0 or 1
	// explores serially. With Cache nil the merged per-bound schedule
	// counts are identical for every worker count (threadsim passes
	// GOMAXPROCS by default). Replay and minimization always run
	// single-threaded.
	Workers int
}

// KStats is one row of the context-bound coverage table.
type KStats struct {
	K         int
	Schedules int // complete schedules enumerated at this bound (cost ≤ K)
	MaxDepth  int // decision points in the deepest schedule
	Pruned    int // alternatives skipped by sleep-set pruning
	CacheHits int // runs cut short because the state was already covered
}

// Report summarizes an exploration of one litmus program.
type Report struct {
	Litmus          string
	ExpectViolation bool
	PerK            []KStats
	Runs            int // total runs (bounds re-cover their predecessors)
	Decisions       int // decision points evaluated across all runs
	Violation       *Violation
	Certificate     *Certificate // minimized witness, when a violation was found
	MinimizedFrom   int          // certificate choices before minimization
	Partial         bool         // BudgetHit || SchedCapHit
	BudgetHit       bool         // the wall-clock Budget expired
	SchedCapHit     bool         // the per-bound MaxSchedules cap fired
	Pruned          int          // total sleep-set prunes
	CacheHits       int          // total state-cache subtree prunes
	CacheLoaded     int          // cache entries restored from a snapshot
	CacheEntries    int          // cache entries after exploration
	Workers         int          // worker count actually used
	Elapsed         time.Duration
}

// Schedules returns the number of schedules explored, the sum of PerK.
// Unlike Runs it leaves out the parallel frontier's probe runs, so it does
// not depend on the worker count.
func (r *Report) Schedules() int {
	n := 0
	for _, ks := range r.PerK {
		n += ks.Schedules
	}
	return n
}

// Ok reports whether the exploration's verdict matches the litmus's
// expectation: clean programs must have no violation, intentionally broken
// ones must have one (a broken litmus explored cleanly means the checker
// lost its teeth). A partial clean result is not Ok for a broken litmus.
func (r *Report) Ok() bool {
	if r.ExpectViolation {
		return r.Violation != nil
	}
	return r.Violation == nil
}

// Explore enumerates lit's schedule space depth-first with iterative
// context-bound widening, stopping at the first violating schedule (which
// it returns as a minimized certificate).
//
// The enumeration is an odometer over the decision tree: each run replays
// a forced prefix of choices and extends it with the default policy; the
// next prefix is found by scanning the recorded decisions backwards for
// the deepest point with an untried alternative whose preemption cost
// still fits the bound. Every maximal path with at most k preemptions is
// visited exactly once per bound — minus the subtrees the optional
// sleep-set reduction and state cache prove redundant.
func Explore(lit *checker.Litmus, o Options) *Report {
	start := time.Now()
	workers := max(o.Workers, 1)
	rep := &Report{Litmus: lit.Name, ExpectViolation: lit.ExpectViolation, Workers: workers}
	if o.Cache != nil {
		rep.CacheLoaded = o.Cache.Loaded()
	}
	var deadline time.Time
	if o.Budget > 0 {
		deadline = start.Add(o.Budget)
	}
	for k := 0; k <= o.MaxPreemptions; k++ {
		sh := &boundShared{deadline: deadline, maxSched: o.MaxSchedules, done: make(chan struct{})}
		var br boundResult
		if workers > 1 {
			br = exploreBoundParallel(lit, &o, sh, k, workers)
		} else {
			en := newEngine(lit, &o, sh, k)
			br = en.dfs(nil)
		}
		br.ks.K = k
		rep.Runs += br.runs
		rep.Decisions += br.decisions
		rep.Pruned += br.ks.Pruned
		rep.CacheHits += br.ks.CacheHits
		rep.PerK = append(rep.PerK, br.ks)
		if br.violation != nil {
			rep.Violation = br.violation.Violation
			cert := certificateFromRun(lit, *br.violation)
			rep.MinimizedFrom = len(cert.Choices)
			rep.Certificate = Minimize(lit, cert)
			break
		}
		rep.BudgetHit = rep.BudgetHit || br.budgetHit
		rep.SchedCapHit = rep.SchedCapHit || br.capHit
		if rep.BudgetHit || rep.SchedCapHit {
			break
		}
	}
	rep.Partial = rep.BudgetHit || rep.SchedCapHit
	if o.Cache != nil {
		rep.CacheEntries = o.Cache.Len()
	}
	rep.Elapsed = time.Since(start)
	return rep
}

// boundShared is the state one context bound's engines share: the clock,
// the schedule cap, and the stop signal a violation raises.
type boundShared struct {
	deadline  time.Time
	maxSched  int
	sched     atomic.Int64
	stop      atomic.Bool
	done      chan struct{}
	closeOnce sync.Once
}

func (sh *boundShared) expired() bool {
	return !sh.deadline.IsZero() && time.Now().After(sh.deadline)
}

func (sh *boundShared) capped() bool {
	return sh.maxSched > 0 && sh.sched.Load() >= int64(sh.maxSched)
}

func (sh *boundShared) countSchedule() { sh.sched.Add(1) }

func (sh *boundShared) stopped() bool { return sh.stop.Load() }

func (sh *boundShared) signalStop() {
	sh.stop.Store(true)
	sh.closeOnce.Do(func() { close(sh.done) })
}

// boundResult is one engine's (or the whole bound's, once merged)
// contribution to a context bound.
type boundResult struct {
	ks        KStats
	runs      int
	decisions int
	violation *RunResult
	budgetHit bool
	capHit    bool
}

func (a *boundResult) merge(b boundResult) {
	a.ks.Schedules += b.ks.Schedules
	a.ks.MaxDepth = max(a.ks.MaxDepth, b.ks.MaxDepth)
	a.ks.Pruned += b.ks.Pruned
	a.ks.CacheHits += b.ks.CacheHits
	a.runs += b.runs
	a.decisions += b.decisions
	a.budgetHit = a.budgetHit || b.budgetHit
	a.capHit = a.capHit || b.capHit
	a.violation = betterViolation(a.violation, b.violation)
}

// betterViolation picks the violation with the shorter, lexicographically
// smaller decision sequence, so the merged pick is as stable as the set of
// violations the workers found before cancellation.
func betterViolation(a, b *RunResult) *RunResult {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if len(a.Decisions) != len(b.Decisions) {
		if len(b.Decisions) < len(a.Decisions) {
			return b
		}
		return a
	}
	for i := range a.Decisions {
		if a.Decisions[i].Chosen != b.Decisions[i].Chosen {
			if b.Decisions[i].Chosen < a.Decisions[i].Chosen {
				return b
			}
			return a
		}
	}
	return a
}

// engine is one depth-first enumerator: a reusable recorder plus the
// per-decision-point sleep/done bookkeeping along the current path.
type engine struct {
	lit    *checker.Litmus
	o      *Options
	sh     *boundShared
	k      int
	rec    recorder
	path   []nodeState
	forced []int
}

func newEngine(lit *checker.Litmus, o *Options, sh *boundShared, k int) *engine {
	en := &engine{lit: lit, o: o, sh: sh, k: k}
	en.rec.por = o.POR == PORSleepSets
	en.rec.cache = o.Cache
	en.rec.bound = k
	return en
}

// dfs exhausts the subtree rooted at the forced prefix: every maximal
// schedule extending prefix with at most k preemptions total, backtracking
// only at depths ≥ len(prefix). A nil prefix explores the whole bound.
//
// After a violation the engine must not run again (the violating
// RunResult aliases the recorder's arenas).
func (en *engine) dfs(prefix []int) boundResult {
	var out boundResult
	floor := len(prefix)
	en.forced = append(en.forced[:0], prefix...)
	en.path = en.path[:0]
	for {
		if en.sh.stopped() {
			break
		}
		if en.sh.expired() {
			out.budgetHit = true
			break
		}
		if en.sh.capped() {
			out.capHit = true
			break
		}
		en.rec.reset(en.forced)
		res := runProgram(en.lit, &en.rec)
		out.runs++
		out.decisions += len(res.Decisions)
		switch {
		case res.Violation != nil:
			r := res
			out.violation = &r
			en.sh.signalStop()
			return out
		case res.Aborted:
			out.ks.CacheHits++
		default:
			en.sh.countSchedule()
			out.ks.Schedules++
			out.ks.MaxDepth = max(out.ks.MaxDepth, len(res.Decisions))
		}
		dec := res.Decisions
		if len(en.path) > len(dec) {
			en.path = en.path[:len(dec)] // aborted above the old frontier
		}
		if en.rec.por {
			if len(en.path) == 0 && floor > 0 {
				en.buildPrefixPath(dec, min(floor, len(dec)))
			}
			for i := len(en.path); i < len(dec); i++ {
				var ns nodeState
				if i > 0 {
					ns.sleep = inheritSleep(en.path[i-1], &dec[i-1])
				}
				en.path = append(en.path, ns)
			}
		} else {
			for len(en.path) < len(dec) {
				en.path = append(en.path, nodeState{})
			}
		}
		advanced := false
		for i := len(dec) - 1; i >= floor; i-- {
			d := &dec[i]
			en.path[i].done |= idBit(d.CandIDs[d.Chosen])
			if alt := en.nextAlt(d, en.path[i]); alt >= 0 {
				en.forced = en.forced[:0]
				for j := 0; j < i; j++ {
					en.forced = append(en.forced, dec[j].Chosen)
				}
				en.forced = append(en.forced, alt)
				en.path = en.path[:i+1]
				advanced = true
				break
			}
			// The node is exhausted: its subtree is completely explored
			// (within budget k − CumPre), which is exactly what a cache
			// entry promises.
			out.ks.Pruned += countSlept(d, en.path[i], en.k)
			if en.rec.cache != nil && !res.Diverged {
				en.rec.cache.put(d.H1, d.H2, en.k-d.CumPre)
			}
			en.path = en.path[:i]
		}
		if !advanced {
			break
		}
	}
	return out
}

// buildPrefixPath reconstructs sleep/done state for the first n forced
// nodes of a work item's prefix, top-down, so a parallel worker prunes
// exactly as a serial search arriving here would (see earlierSiblings).
func (en *engine) buildPrefixPath(dec []Decision, n int) {
	for i := 0; i < n; i++ {
		var ns nodeState
		if i > 0 {
			ns.sleep = inheritSleep(en.path[i-1], &dec[i-1])
		}
		ns.done = earlierSiblings(&dec[i], ns, en.k)
		en.path = append(en.path, ns)
	}
}

// nextAlt returns the next unexplored, affordable, non-slept alternative
// at a decision point — default first, then canonical order — or −1 when
// the node is exhausted.
func (en *engine) nextAlt(d *Decision, ns nodeState) int {
	try := func(idx int) bool {
		if (ns.done|ns.sleep)&idBit(d.CandIDs[idx]) != 0 {
			return false
		}
		cost := 0
		if d.PrevRunnable && idx != d.Default {
			cost = 1
		}
		return d.CumPre+cost <= en.k
	}
	if try(d.Default) {
		return d.Default
	}
	for i := range d.CandIDs {
		if i != d.Default && try(i) {
			return i
		}
	}
	return -1
}
