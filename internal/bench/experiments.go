package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"threads/internal/baselines"
	"threads/internal/checker"
	"threads/internal/core"
	"threads/internal/sim"
	"threads/internal/simthreads"
	"threads/internal/spec"
	"threads/internal/trace"
	"threads/internal/workload"
)

// Options scales the experiments: Quick runs small sweeps (for tests and
// testing.B), full mode runs the sizes the committed EXPERIMENTS.md numbers
// came from.
type Options struct {
	Quick bool
}

func (o Options) pick(quick, full int) int {
	if o.Quick {
		return quick
	}
	return full
}

// Experiment couples an id with its runner.
type Experiment struct {
	ID   string
	Name string
	Run  func(Options) []*Table
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		{"e1", "uncontended fast path (5 instructions / 10 µs)", E1},
		{"e2", "fast-path hit rate vs contention", E2},
		{"e3", "Signal may unblock more than one thread", E3},
		{"e4", "wakeup-waiting race: eventcount vs naive", E4},
		{"e5", "semaphore-based Broadcast strands waiters", E5},
		{"e6", "Mesa hints vs Hoare guarantees", E6},
		{"e7", "model-checking the published spec bugs", E7},
		{"e8", "AlertP/AlertWait non-determinism", E8},
		{"e9", "implementation conformance to the specification", E9},
		{"e10", "throughput scaling vs baselines", E10},
		{"e16", "scaling walls: core-count sweep, before/after the fixes", E16},
		{"e19", "priority inversion: tail latency with and without inheritance", E19},
		{"ea", "ablations: remove the paper's optimizations", EA},
	}
}

// ---------------------------------------------------------------------------
// E1 — "an Acquire-Release pair executes a total of 5 instructions, taking
// 10 microseconds on a MicroVAX II" (§Implementation).
// ---------------------------------------------------------------------------

// E1 measures the uncontended fast paths.
func E1(o Options) []*Table {
	t := &Table{
		ID:    "E1",
		Title: "uncontended synchronization cost",
		Note: `paper: "In this case an Acquire-Release pair executes a total of 5
instructions, taking 10 microseconds on a MicroVAX II."`,
		Headers: []string{"operation pair", "sim instructions", "sim µs (MicroVAX II)", "paper", "Go runtime ns/op"},
	}
	mutexPair := SimPairInstr("mutex")
	semPair := SimPairInstr("sem")

	iters := o.pick(200_000, 2_000_000)
	goPair := func(enter, leave func()) float64 {
		start := time.Now()
		for i := 0; i < iters; i++ {
			enter()
			leave()
		}
		return float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	var m core.Mutex
	mutexNs := goPair(m.Acquire, m.Release)
	var s core.Semaphore
	semNs := goPair(s.P, s.V)
	micros := sim.MicroVAXII().MicrosPerInstr

	t.Add("Acquire+Release", mutexPair, F(float64(mutexPair)*micros, 1), "5 instr / 10 µs", F(mutexNs, 1))
	t.Add("P+V", semPair, F(float64(semPair)*micros, 1), "same as mutex", F(semNs, 1))
	return []*Table{t}
}

// SimPairInstr returns the simulated-Firefly instruction count of one
// uncontended pair on a single processor: Acquire+Release for kind "mutex",
// P+V for kind "sem". It is exactly reproducible on any machine.
func SimPairInstr(kind string) uint64 {
	w, k := simthreads.NewWorld(sim.Config{Procs: 1})
	var enter, leave func(*sim.Env)
	switch kind {
	case "mutex":
		m := w.NewMutex()
		enter, leave = m.Acquire, m.Release
	case "sem":
		s := w.NewSemaphore()
		enter, leave = s.P, s.V
	default:
		panic(fmt.Sprintf("SimPairInstr: unknown kind %q", kind))
	}
	var pair uint64
	k.Spawn("solo", func(e *sim.Env) {
		before := e.Instret()
		enter(e)
		leave(e)
		pair = e.Instret() - before
	})
	if err := k.Run(); err != nil {
		panic(err)
	}
	return pair
}

// ---------------------------------------------------------------------------
// E2 — the user code avoids Nub calls; how often, as contention grows.
// ---------------------------------------------------------------------------

// E2 sweeps threads × processors on the simulator and reports the fraction
// of Acquires satisfied entirely in user code.
func E2(o Options) []*Table {
	t := &Table{
		ID:    "E2",
		Title: "fast-path (no Nub call) rate under contention — simulated Firefly",
		Note: `paper: "The purpose of having code in the user space is to optimize most
cases where the synchronization action will not cause the thread to block" —
uncontended ops never enter the Nub; the rate degrades with threads/processor.`,
		Headers: []string{"procs", "threads", "fast-path rate", "parks/op", "µs/op"},
	}
	iters := o.pick(100, 400)
	for _, procs := range []int{1, 2, 5, 8} {
		for _, threads := range []int{1, 2, 4, 8, 16} {
			res, err := workload.SimMutexContention(workload.SimContentionConfig{
				Procs: procs, Threads: threads, Iters: iters,
				CSWork: 20, Think: 200, Seed: int64(procs*100 + threads),
			})
			if err != nil {
				panic(err)
			}
			ops := float64(threads * iters)
			t.Add(procs, threads,
				Pct(res.FastPathRate()),
				F(float64(res.Stats.AcquirePark)/ops, 3),
				F(res.Micros/ops, 2))
		}
	}
	return []*Table{t}
}

// ---------------------------------------------------------------------------
// E3 — Signal may unblock more than one thread.
// ---------------------------------------------------------------------------

// E3 counts, across seeds, runs in which fewer Signals than waiters
// sufficed: some Signal's eventcount advance released several threads
// racing in the Enqueue→Block window.
func E3(o Options) []*Table {
	t := &Table{
		ID:    "E3",
		Title: "one Signal releasing several threads (why ENSURES can't be strengthened)",
		Note: `paper: "although our implementation of Signal usually unblocks just one
waiting thread, it may unblock more" — every thread between its eventcount
read and Block when Signal advances the count is released with the popped one.`,
		Headers: []string{"waiters", "seeds", "runs w/ multi-unblock", "max extra released", "elided blocks total"},
	}
	seeds := o.pick(120, 600)
	for _, waiters := range []int{2, 4, 8} {
		multi, maxExtra, elidedTotal := 0, 0, uint64(0)
		for seed := 0; seed < seeds; seed++ {
			signals, elided, err := SignalRaceTrial(waiters, int64(seed))
			if err != nil {
				panic(fmt.Sprintf("seed %d: %v", seed, err))
			}
			if signals < waiters {
				multi++
				if extra := waiters - signals; extra > maxExtra {
					maxExtra = extra
				}
			}
			elidedTotal += elided
		}
		t.Add(waiters, seeds, multi, maxExtra, elidedTotal)
	}
	return []*Table{t}
}

// SignalRaceTrial runs one seeded simulated-Firefly trial of E3: waiters
// threads Wait on a condition until a driver sets a flag and then Signals
// until all of them have left. It returns how many Signals that took
// (fewer than waiters means one Signal released several threads) and how
// many Blocks returned without descheduling.
func SignalRaceTrial(waiters int, seed int64) (signals int, elided uint64, err error) {
	w, k := simthreads.NewWorld(sim.Config{
		Procs: 4, Seed: seed, Policy: sim.PolicyRandom, MaxSteps: 3_000_000,
	})
	m := w.NewMutex()
	c := w.NewCondition()
	var ready, done sim.Word
	for i := 0; i < waiters; i++ {
		k.Spawn("waiter", func(e *sim.Env) {
			m.Acquire(e)
			for e.Load(&ready) == 0 {
				c.Wait(e, m)
			}
			m.Release(e)
			e.Add(&done, 1)
		})
	}
	k.Spawn("driver", func(e *sim.Env) {
		e.Work(50)
		m.Acquire(e)
		e.Store(&ready, 1)
		m.Release(e)
		for e.Load(&done) != uint64(waiters) {
			c.Signal(e)
			signals++
			e.Work(100)
		}
	})
	err = k.Run()
	return signals, w.Stats.WaitElided, err
}

// ---------------------------------------------------------------------------
// E4 — the wakeup-waiting race.
// ---------------------------------------------------------------------------

// E4 sweeps seeds over a signal/wait handshake for the naive (separate
// release-then-sleep) condition variable and for the paper's eventcount
// implementation.
func E4(o Options) []*Table {
	t := &Table{
		ID:    "E4",
		Title: "lost wakeups: naive condition variable vs eventcount (Block(c, i))",
		Note: `paper: "The two things that Wait(m, c) must do first ... must be in one
atomic action relative to any call of Signal ... no signals are lost between
these two actions." The eventcount closes the race the naive code loses.`,
		Headers: []string{"impl", "procs", "waiters", "seeds", "lost wakeups", "loss rate"},
	}
	seeds := o.pick(120, 1000)
	for _, impl := range []struct {
		name string
		ec   bool
	}{{"naive", false}, {"eventcount", true}} {
		for _, procs := range []int{2, 4} {
			for _, waiters := range []int{1, 4} {
				lost := 0
				for seed := 0; seed < seeds; seed++ {
					if workload.RunLostWakeupTrial(workload.LostWakeupTrial{
						Seed: int64(seed), Procs: procs, Waiters: waiters, UseEventcount: impl.ec,
					}) {
						lost++
					}
				}
				t.Add(impl.name, procs, waiters, seeds, lost, Pct(float64(lost)/float64(seeds)))
			}
		}
	}
	return []*Table{t}
}

// ---------------------------------------------------------------------------
// E5 — Broadcast over a binary semaphore strands waiters.
// ---------------------------------------------------------------------------

// E5 broadcasts to racing waiters using the semaphore-based condition
// variable and the Threads one, and counts strandees.
func E5(o Options) []*Table {
	t := &Table{
		ID:    "E5",
		Title: "Broadcast: eventcount condition variable vs semaphore-based",
		Note: `paper: "Unfortunately, this implementation does not generalize to
Broadcast(c) ... there might be arbitrarily many threads in the race ... and
the implementation of Broadcast would have no way of indicating that they
should all resume."`,
		Headers: []string{"impl", "waiters", "rounds", "stranded (total)", "stranded/round"},
	}
	rounds := o.pick(15, 60)
	for _, waiters := range []int{2, 4, 8, 16} {
		for _, impl := range []string{"threads", "semcond"} {
			stranded := 0
			for round := 0; round < rounds; round++ {
				stranded += broadcastStrandTrial(impl, waiters)
			}
			t.Add(impl, waiters, rounds, stranded, F(float64(stranded)/float64(rounds), 2))
		}
	}
	return []*Table{t}
}

// broadcastStrandTrial blocks `waiters` threads, flips the predicate, does
// one Broadcast and reports how many stayed blocked.
//
// The trial pins the paper's wake-and-retry protocol: under direct
// hand-off (HandoffAdaptive, the shipping default) every V in the naive
// Broadcast loop transfers the token to a distinct *parked* waiter instead
// of setting the one semaphore bit, so the coalescing this experiment
// demonstrates never happens once all waiters are asleep. That rescue is
// an artifact of everyone being parked — the race-window stranding (a
// waiter between Release(m) and P) is mode-independent — but the paper's
// claim is about its 1987 implementation, so measure that one.
func broadcastStrandTrial(impl string, waiters int) int {
	prev := core.SetHandoffMode(core.HandoffOff)
	defer core.SetHandoffMode(prev)
	var mu core.Mutex
	var tc core.Condition
	var sc *baselines.SemCond
	if impl == "semcond" {
		sc = baselines.NewSemCond(&mu)
	}
	gate := false
	var resumed int32
	var wg sync.WaitGroup
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		core.Fork(func() {
			defer wg.Done()
			mu.Acquire()
			for !gate {
				if sc != nil {
					sc.Wait()
				} else {
					tc.Wait(&mu)
				}
			}
			atomic.AddInt32(&resumed, 1)
			mu.Release()
		})
	}
	time.Sleep(10 * time.Millisecond) // let them block
	mu.Acquire()
	gate = true
	mu.Release()
	if sc != nil {
		sc.Broadcast()
	} else {
		tc.Broadcast()
	}
	time.Sleep(30 * time.Millisecond)
	got := int(atomic.LoadInt32(&resumed))
	// Rescue strandees so the goroutines exit (repeated singles always
	// work on both implementations).
	for int(atomic.LoadInt32(&resumed)) < waiters {
		if sc != nil {
			sc.Signal()
		} else {
			tc.Broadcast()
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	return waiters - got
}

// ---------------------------------------------------------------------------
// E6 — Mesa hints vs Hoare guarantees.
// ---------------------------------------------------------------------------

// E6 compares the Threads (Mesa) monitor against Hoare signalling on the
// bounded buffer: spurious-resume rate and throughput.
func E6(o Options) []*Table {
	t := &Table{
		ID:    "E6",
		Title: "hint semantics (Threads/Mesa) vs guaranteed predicates (Hoare)",
		Note: `paper: "Return from Wait is only a hint ... Our looser specification
reduces the obligations of the signalling thread and leads to a more
efficient implementation on our multiprocessor." Hoare waiters never re-loop;
Threads waiters sometimes must; Threads signallers never block.`,
		Headers: []string{"impl", "prod", "cons", "items", "spurious rate", "items/ms"},
	}
	items := o.pick(2000, 20000)
	for _, shape := range [][2]int{{1, 1}, {2, 2}, {4, 4}} {
		for _, mk := range []func() baselines.Monitor{
			func() baselines.Monitor { return baselines.NewThreadsMonitor() },
			func() baselines.Monitor { return baselines.NewHoareMonitor() },
			func() baselines.Monitor { return baselines.NewNativeMonitor() },
		} {
			m := mk()
			res := workload.ProducerConsumer(m, workload.PCConfig{
				Producers: shape[0], Consumers: shape[1],
				ItemsPerProducer: items / shape[0], Capacity: 4, Work: 50,
			})
			t.Add(m.Name(), shape[0], shape[1], res.Items,
				Pct(res.SpuriousRate()), F(res.ItemsPerSec()/1000, 1))
		}
	}

	steal := &Table{
		ID:    "E6b",
		Title: "predicate stolen between Signal and resume: hint vs guarantee",
		Note: `paper: "Even if threads take care to call Signal only when the predicate is
true, it may become false before a waiting thread resumes execution. Some
other thread may enter a critical section first and invalidate the
predicate." A thief steals the signalled token; Mesa waiters observe a false
predicate and re-Wait, Hoare waiters never can.`,
		Headers: []string{"impl", "tokens delivered", "spurious resumes", "spurious/token"},
	}
	rounds := o.pick(1500, 10000)
	for _, mk := range []func() baselines.Monitor{
		func() baselines.Monitor { return baselines.NewThreadsMonitor() },
		func() baselines.Monitor { return baselines.NewHoareMonitor() },
		func() baselines.Monitor { return baselines.NewNativeMonitor() },
	} {
		m := mk()
		stolen := stealTrial(m, rounds)
		steal.Add(m.Name(), rounds, stolen, F(float64(stolen)/float64(rounds), 2))
	}
	return []*Table{t, steal}
}

// stealTrial delivers `rounds` tokens to a consumer; after each Signal the
// producer immediately tries to steal the token back. Under Mesa semantics
// the monitor is open between the Signal and the waiter's reacquire, so the
// thief often wins and the waiter resumes to a false predicate (counted);
// under Hoare handoff the waiter is guaranteed the token and the thief
// never sees one.
func stealTrial(m baselines.Monitor, rounds int) int {
	c := m.NewCond()
	tokens := 0
	spurious := 0
	consumedOne := make(chan struct{})
	done := make(chan struct{})
	go func() { // the consumer/waiter
		defer close(done)
		for got := 0; got < rounds; got++ {
			m.Acquire()
			for tokens == 0 {
				c.Wait()
				if tokens == 0 {
					spurious++ // resumed to a stolen token: the hint was stale
				}
			}
			tokens--
			m.Release()
			consumedOne <- struct{}{}
		}
	}()
	for i := 0; i < rounds; i++ {
		delivered := false
		for attempt := 0; !delivered; attempt++ {
			m.Acquire()
			tokens++
			c.Signal() // Hoare: the monitor passes to the waiter right here
			m.Release()
			m.Acquire()
			stole := false
			if tokens > 0 && attempt < 8 {
				tokens-- // stolen before the waiter resumed
				stole = true
			} else {
				delivered = true // consumed already, or give up stealing
			}
			m.Release()
			if stole {
				// Let the signalled waiter run and observe the theft.
				runtime.Gosched()
			}
		}
		<-consumedOne
	}
	<-done
	return spurious
}

// ---------------------------------------------------------------------------
// E7 — the two published specification bugs, rediscovered mechanically.
// ---------------------------------------------------------------------------

// E7 model-checks the AlertWait litmus scenarios against all three
// historical specification variants.
func E7(Options) []*Table {
	t := &Table{
		ID:    "E7",
		Title: "model-checking the AlertWait specification variants",
		Note: `paper (Discussion): the first release lacked "m = NIL &" (found in under
an hour); the next kept UNCHANGED [c] on the Alerted path (found after more
than a year, by Greg Nelson: a Signal could choose the departed thread and
wake nobody). The final text has both fixes.`,
		Headers: []string{"variant", "property", "verdict", "states", "transitions", "trace len"},
	}
	variants := []spec.Variant{spec.VariantNoMNil, spec.VariantUnchangedC, spec.VariantFinal}
	for _, v := range variants {
		res := checker.Run(checker.AlertSeizesHeldMutex(v))
		verdict := "holds"
		traceLen := 0
		if res.Violation != nil {
			verdict = "VIOLATED: " + res.Violation.Kind
			traceLen = len(res.Violation.Trace)
		}
		t.Add(v.String(), "mutual exclusion", verdict, res.States, res.Transitions, traceLen)
	}
	for _, v := range variants {
		res := checker.Run(checker.SignalAbsorbedByDepartedThread(v))
		verdict := "holds"
		traceLen := 0
		if res.Violation != nil {
			verdict = "VIOLATED: signal absorbed"
			traceLen = len(res.Violation.Trace)
		}
		t.Add(v.String(), "no absorbed signal", verdict, res.States, res.Transitions, traceLen)
	}
	return []*Table{t}
}

// ---------------------------------------------------------------------------
// E8 — the deliberate non-determinism of AlertP/AlertWait.
// ---------------------------------------------------------------------------

// E8 races Signal against Alert on a blocked AlertWait and counts outcomes;
// it also reports the checker's view (both outcomes reachable).
func E8(o Options) []*Table {
	t := &Table{
		ID:    "E8",
		Title: "overlapping RETURNS/RAISES WHEN clauses: observed outcomes",
		Note: `paper: "the WHEN clauses of the normal (RETURNS) and exceptional (RAISES)
cases are not mutually exclusive; this gives their implementations the right
to make arbitrary choices ... sometimes it raised the exception and sometimes
it didn't."`,
		Headers: []string{"experiment", "rounds", "normal returns", "alerted raises"},
	}
	rounds := o.pick(150, 1000)
	normal, alerted := 0, 0
	for i := 0; i < rounds; i++ {
		if SignalAlertRaceTrial(i%2 == 0) {
			alerted++
		} else {
			normal++
		}
	}
	t.Add("Signal vs Alert race on AlertWait (Go runtime)", rounds, normal, alerted)

	cfg, outcomes := checker.AlertPOverlap()
	checker.Run(cfg)
	ret, rai := 0, 0
	if (*outcomes)["AlertP.Return"] {
		ret = 1
	}
	if (*outcomes)["AlertP.Raise"] {
		rai = 1
	}
	t.Add("AlertP overlap state (model checker, reachable?)", 2, ret, rai)
	return []*Table{t}
}

// SignalAlertRaceTrial blocks one thread in AlertWait, fires Signal and
// Alert concurrently (in either launch order, since the implementation is
// free to resolve the overlap either way and the Go scheduler runs the most
// recently created goroutine first on an idle processor), and reports
// whether the Alerted path was taken.
func SignalAlertRaceTrial(signalFirst bool) bool {
	var (
		m core.Mutex
		c core.Condition
	)
	errCh := make(chan error, 1)
	th := core.Fork(func() {
		m.Acquire()
		//threadsvet:ignore waitloop: race trial performs exactly one AlertWait to observe which way the Signal/Alert overlap resolves
		err := c.AlertWait(&m)
		m.Release()
		errCh <- err
	})
	for c.Waiters() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	ops := []func(){func() { c.Signal() }, func() { core.Alert(th) }}
	if signalFirst {
		ops[0], ops[1] = ops[1], ops[0]
	}
	for _, op := range ops {
		op := op
		go func() { defer wg.Done(); op() }()
	}
	wg.Wait()
	err := <-errCh
	core.Join(th)
	return err != nil
}

// ---------------------------------------------------------------------------
// E9 — conformance: traced implementation runs replay through the spec.
// ---------------------------------------------------------------------------

// E9 runs traced simulator workloads across seeds and replays every emitted
// action through the specification state machine.
func E9(o Options) []*Table {
	t := &Table{
		ID:    "E9",
		Title: "trace conformance: simulated implementation vs formal specification",
		Note: `every operation emits its atomic action at the linearization point (inside
the Nub spin lock); the serialized action sequence must satisfy every
REQUIRES / WHEN / ENSURES clause. Violations found: must be zero.`,
		Headers: []string{"workload", "seeds", "events checked", "violations"},
	}
	seeds := o.pick(15, 100)
	for _, wl := range []struct {
		name  string
		build func(w *simthreads.World, k *simthreads.Kernel)
	}{
		{"mutex contention (4 threads)", buildContention},
		{"producer-consumer (2+2)", BuildPC},
		{"alerts + semaphores", buildAlerts},
	} {
		events, violations := 0, 0
		for seed := 0; seed < seeds; seed++ {
			evs, err := TraceE9(wl.build, int64(seed))
			if err != nil {
				panic(fmt.Sprintf("%s seed %d: %v", wl.name, seed, err))
			}
			n, err := trace.CheckAll(evs)
			events += n
			if err != nil {
				violations++
			}
		}
		t.Add(wl.name, seeds, events, violations)
	}
	return []*Table{t}
}

// TraceE9 records one run of an E9 workload: build's threads on a
// four-processor simulated Firefly, scheduled at random from seed, with
// every specification action they emit collected in emission order.
// BenchmarkE9_TraceConformance replays the producer-consumer's trace.
func TraceE9(build func(*simthreads.World, *simthreads.Kernel), seed int64) ([]trace.Event, error) {
	var evs []trace.Event
	w, k := simthreads.NewWorld(sim.Config{
		Procs: 4, Seed: seed, Policy: sim.PolicyRandom, MaxSteps: 5_000_000,
		Trace: func(ev sim.Event) {
			if a, ok := ev.Payload.(spec.Action); ok {
				evs = append(evs, trace.Event{Seq: ev.Seq, Thread: ev.Thread.Name(), Action: a})
			}
		},
	})
	build(w, k)
	return evs, k.Run()
}

func buildContention(w *simthreads.World, k *simthreads.Kernel) {
	m := w.NewMutex()
	for i := 0; i < 4; i++ {
		k.Spawn("", func(e *sim.Env) {
			for n := 0; n < 25; n++ {
				m.Acquire(e)
				e.Work(3)
				m.Release(e)
			}
		})
	}
}

// BuildPC is E9's producer-consumer: two producers and two consumers on a
// three-slot buffer guarded by one mutex and two conditions.
func BuildPC(w *simthreads.World, k *simthreads.Kernel) {
	m := w.NewMutex()
	nonEmpty := w.NewCondition()
	nonFull := w.NewCondition()
	var queue, consumed sim.Word
	const total, capacity = 40, 3
	for i := 0; i < 2; i++ {
		k.Spawn("producer", func(e *sim.Env) {
			for n := 0; n < total/2; n++ {
				m.Acquire(e)
				for e.Load(&queue) == capacity {
					nonFull.Wait(e, m)
				}
				e.Add(&queue, 1)
				m.Release(e)
				nonEmpty.Signal(e)
			}
		})
	}
	for i := 0; i < 2; i++ {
		k.Spawn("consumer", func(e *sim.Env) {
			for {
				m.Acquire(e)
				for e.Load(&queue) == 0 {
					if e.Load(&consumed) >= total {
						m.Release(e)
						nonEmpty.Broadcast(e)
						return
					}
					nonEmpty.Wait(e, m)
				}
				e.Add(&queue, ^uint64(0))
				n := e.Add(&consumed, 1)
				m.Release(e)
				nonFull.Signal(e)
				if n >= total {
					nonEmpty.Broadcast(e)
					return
				}
			}
		})
	}
}

func buildAlerts(w *simthreads.World, k *simthreads.Kernel) {
	m := w.NewMutex()
	c := w.NewCondition()
	s := w.NewSemaphore()
	var stop sim.Word
	alertee := k.Spawn("alertee", func(e *sim.Env) {
		m.Acquire(e)
		for e.Load(&stop) == 0 {
			if c.AlertWait(e, m) {
				break
			}
		}
		m.Release(e)
	})
	semW := k.Spawn("sem-waiter", func(e *sim.Env) {
		s.P(e)
		if !s.AlertP(e) {
			s.V(e)
		}
		s.V(e)
	})
	k.Spawn("live", func(e *sim.Env) {
		m.Acquire(e)
		for e.Load(&stop) == 0 {
			c.Wait(e, m)
		}
		m.Release(e)
	})
	k.Spawn("driver", func(e *sim.Env) {
		e.Work(300)
		w.Alert(e, alertee)
		w.Alert(e, semW)
		e.Work(300)
		m.Acquire(e)
		e.Store(&stop, 1)
		m.Release(e)
		for i := 0; i < 20; i++ {
			c.Broadcast(e)
			e.Work(100)
		}
		_ = w.TestAlert(e)
	})
}

// ---------------------------------------------------------------------------
// E10 — throughput scaling vs baselines.
// ---------------------------------------------------------------------------

// E10 measures producer-consumer and contention throughput of the Threads
// implementation against Hoare and native-sync baselines on the Go runtime,
// and bounded-buffer makespan scaling on the simulated Firefly.
func E10(o Options) []*Table {
	real := &Table{
		ID:    "E10a",
		Title: "Go-runtime throughput: Threads vs Hoare vs native sync",
		Note: `the shape to reproduce: Threads ~ native (both Mesa-style with user-space
fast paths) and both well above Hoare signalling, whose hand-offs serialize
the monitor through every signalled waiter.`,
		Headers: []string{"workload", "impl", "threads", "ops/ms"},
	}
	iters := o.pick(3000, 30000)
	for _, threads := range []int{2, 4, 8} {
		for _, mk := range []func() baselines.Monitor{
			func() baselines.Monitor { return baselines.NewThreadsMonitor() },
			func() baselines.Monitor { return baselines.NewHoareMonitor() },
			func() baselines.Monitor { return baselines.NewNativeMonitor() },
		} {
			m := mk()
			res := workload.MutexContention(m, workload.ContentionConfig{
				Threads: threads, Iters: iters / threads, CSWork: 20, Think: 100,
			})
			real.Add("contention", m.Name(), threads, F(res.OpsPerSec()/1000, 1))
		}
	}
	for _, shape := range [][2]int{{2, 2}, {4, 4}} {
		for _, mk := range []func() baselines.Monitor{
			func() baselines.Monitor { return baselines.NewThreadsMonitor() },
			func() baselines.Monitor { return baselines.NewHoareMonitor() },
			func() baselines.Monitor { return baselines.NewNativeMonitor() },
		} {
			m := mk()
			res := workload.ProducerConsumer(m, workload.PCConfig{
				Producers: shape[0], Consumers: shape[1],
				ItemsPerProducer: iters / shape[0], Capacity: 8, Work: 30,
			})
			real.Add(fmt.Sprintf("prod-cons %dx%d", shape[0], shape[1]),
				m.Name(), shape[0]+shape[1], F(res.ItemsPerSec()/1000, 1))
		}
	}

	simT := &Table{
		ID:    "E10b",
		Title: "simulated Firefly: bounded-buffer makespan vs processors",
		Note: `adding processors shortens the makespan until the monitor serializes the
workload (the critical section becomes the bottleneck).`,
		Headers: []string{"procs", "threads", "items", "makespan µs", "speedup vs 1 proc"},
	}
	items := o.pick(60, 300)
	var base float64
	for _, procs := range []int{1, 2, 4, 8} {
		res, err := workload.SimProducerConsumer(workload.SimPCConfig{
			Procs: procs, Producers: 4, Consumers: 4,
			ItemsPerProducer: items / 4, Capacity: 8, Work: 400, Seed: int64(procs),
		})
		if err != nil {
			panic(err)
		}
		if procs == 1 {
			base = res.Micros
		}
		simT.Add(procs, 8, res.Items, F(res.Micros, 0), F(base/res.Micros, 2))
	}
	return []*Table{real, simT}
}

// ---------------------------------------------------------------------------
// EA — ablations of the design choices DESIGN.md calls out.
// ---------------------------------------------------------------------------

// EA measures the cost of removing each optimization the paper's
// implementation section motivates: the user-space fast path and the
// no-waiter Signal short-circuit.
func EA(o Options) []*Table {
	t := &Table{
		ID:    "EA",
		Title: "ablations on the simulated Firefly",
		Note: `each row removes one optimization from §Implementation and re-measures;
the paper's design decisions are exactly the deltas.`,
		Headers: []string{"configuration", "uncontended pair (instr)", "100 empty Signals (instr)", "contended µs/op (5p×8t)"},
	}
	iters := o.pick(100, 400)
	measure := func(opts simthreads.WorldOptions) (pair, signals uint64, contended float64) {
		w, k := simthreads.NewWorldOpts(sim.Config{Procs: 1}, opts)
		m := w.NewMutex()
		c := w.NewCondition()
		k.Spawn("solo", func(e *sim.Env) {
			before := e.Instret()
			m.Acquire(e)
			m.Release(e)
			pair = e.Instret() - before
			before = e.Instret()
			for i := 0; i < 100; i++ {
				c.Signal(e)
			}
			signals = e.Instret() - before
		})
		if err := k.Run(); err != nil {
			panic(err)
		}
		w2, k2 := simthreads.NewWorldOpts(sim.Config{
			Procs: 5, Seed: 7, Quantum: 10_000, MaxSteps: 200_000_000,
		}, opts)
		m2 := w2.NewMutex()
		const threads = 8
		for i := 0; i < threads; i++ {
			k2.Spawn("", func(e *sim.Env) {
				for n := 0; n < iters; n++ {
					m2.Acquire(e)
					e.Work(20)
					m2.Release(e)
					e.Work(200)
				}
			})
		}
		if err := k2.Run(); err != nil {
			panic(err)
		}
		contended = k2.MakespanMicros() / float64(threads*iters)
		return
	}
	for _, cfg := range []struct {
		name string
		opts simthreads.WorldOptions
	}{
		{"paper (both optimizations)", simthreads.WorldOptions{}},
		{"no user-space fast path", simthreads.WorldOptions{NoUserFastPath: true}},
		{"no Signal fast path", simthreads.WorldOptions{NoSignalFastPath: true}},
		{"neither", simthreads.WorldOptions{NoUserFastPath: true, NoSignalFastPath: true}},
	} {
		pair, signals, contended := measure(cfg.opts)
		t.Add(cfg.name, pair, signals, F(contended, 2))
	}
	return []*Table{t}
}

// ---------------------------------------------------------------------------
// E19 — priority inversion: the Nub "does priority scheduling and time
// slicing" (§Implementation); inheritance keeps a preempted lock holder
// from being starved by the medium band.
// ---------------------------------------------------------------------------

// E19 runs the mixed-priority workload (workload.SimPriorityTail) with
// priority inheritance off and on, and reports the high-priority thread's
// lock-acquire latency distribution. The workload is deterministic, so the
// rows are exact — the same numbers the regression baseline pins.
func E19(Options) []*Table {
	t := &Table{
		ID:    "E19",
		Title: "mixed-priority tail latency (sim instructions)",
		Note: `one low-priority lock holder, one high-priority client, a medium-priority
compute band covering every processor; the holder's critical section spans
several quanta, so the slicer preempts it mid-section. Without inheritance
the medium band then starves the holder — the Mars Pathfinder shape — and
the high-priority client eats the band's whole burst as lock latency.`,
		Headers: []string{"inheritance", "p50", "p99", "p999", "max", "makespan"},
	}
	for _, pi := range []bool{false, true} {
		res, err := workload.SimPriorityTail(workload.DefaultPriorityConfig(pi))
		if err != nil {
			panic(err)
		}
		name := "off"
		if pi {
			name = "on"
		}
		t.Add(name, res.P50, res.P99, res.P999, res.Max, res.Makespan)
	}
	return []*Table{t}
}
