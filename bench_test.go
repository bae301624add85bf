// Benchmarks, one group per experiment in EXPERIMENTS.md. They are the
// testing.B counterparts of cmd/threadsbench: E1–E13 each get a micro- or
// macro-benchmark whose custom metrics reproduce the paper's claims (for
// example, sim-instructions/op for E1, fastpath fraction for E2) or guard
// the contended-path properties (zero allocations per park, E11–E13).
package threads_test

import (
	"sync"
	"testing"
	"time"

	"threads"
	"threads/internal/baselines"
	"threads/internal/bench"
	"threads/internal/checker"
	"threads/internal/sim"
	"threads/internal/spec"
	"threads/internal/trace"
	"threads/internal/workload"
)

// ---------------------------------------------------------------------------
// E1 — uncontended fast path.
// ---------------------------------------------------------------------------

func BenchmarkE1_AcquireRelease(b *testing.B) {
	var m threads.Mutex
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Acquire()
		m.Release()
	}
	reportSimPair(b, "mutex")
}

func BenchmarkE1_PV(b *testing.B) {
	var s threads.Semaphore
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.P()
		s.V()
	}
	reportSimPair(b, "sem")
}

func BenchmarkE1_GoSyncMutexBaseline(b *testing.B) {
	var m sync.Mutex
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Lock()
		m.Unlock()
	}
}

// reportSimPair attaches the simulated-Firefly instruction count of the
// uncontended pair as a custom metric (the paper's 5 instructions / 10 µs).
func reportSimPair(b *testing.B, kind string) {
	pair := bench.SimPairInstr(kind)
	b.ReportMetric(float64(pair), "sim-instr/pair")
	b.ReportMetric(float64(pair)*sim.MicroVAXII().MicrosPerInstr, "sim-µs/pair")
}

// ---------------------------------------------------------------------------
// E2 — fast-path rate under contention.
// ---------------------------------------------------------------------------

func BenchmarkE2_ContendedAcquireRelease(b *testing.B) {
	defer threads.EnableStats(threads.EnableStats(true))
	threads.ResetStats()
	var m threads.Mutex
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.Acquire()
			m.Release()
		}
	})
	s := threads.SnapshotStats()
	// Spin wins count toward the fast path: they resolve in user space
	// without a Nub (kernel) entry, which is what the fraction measures.
	fast := s.AcquireFast + s.AcquireSpin
	total := fast + s.AcquireNub
	if total > 0 {
		b.ReportMetric(float64(fast)/float64(total), "fastpath-frac")
		b.ReportMetric(float64(s.AcquirePark)/float64(total), "parks/op")
		b.ReportMetric(float64(s.AcquireBackout)/float64(total), "backouts/op")
	}
}

func BenchmarkE2_SimContentionSweep(b *testing.B) {
	// One simulated contended run per iteration; the metric of record is
	// the fast-path rate at 8 threads on 5 processors.
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := workload.SimMutexContention(workload.SimContentionConfig{
			Procs: 5, Threads: 8, Iters: 50, CSWork: 20, Think: 200, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		rate = res.FastPathRate()
	}
	b.ReportMetric(rate, "fastpath-frac")
}

// ---------------------------------------------------------------------------
// E3 — Signal with racing waiters.
// ---------------------------------------------------------------------------

func BenchmarkE3_SignalRacingWaiters(b *testing.B) {
	const waiters = 4
	multi := 0
	for i := 0; i < b.N; i++ {
		signals, _, err := bench.SignalRaceTrial(waiters, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if signals < waiters {
			multi++
		}
	}
	b.ReportMetric(float64(multi)/float64(b.N), "multi-unblock-frac")
}

// ---------------------------------------------------------------------------
// E4 — wakeup-waiting race.
// ---------------------------------------------------------------------------

func BenchmarkE4_EventcountHandshake(b *testing.B) {
	lost := 0
	for i := 0; i < b.N; i++ {
		if workload.RunLostWakeupTrial(workload.LostWakeupTrial{
			Seed: int64(i), Procs: 2, Waiters: 2, UseEventcount: true,
		}) {
			lost++
		}
	}
	b.ReportMetric(float64(lost)/float64(b.N), "lost-wakeup-frac")
}

func BenchmarkE4_NaiveHandshake(b *testing.B) {
	lost := 0
	for i := 0; i < b.N; i++ {
		if workload.RunLostWakeupTrial(workload.LostWakeupTrial{
			Seed: int64(i), Procs: 2, Waiters: 2, UseEventcount: false,
		}) {
			lost++
		}
	}
	b.ReportMetric(float64(lost)/float64(b.N), "lost-wakeup-frac")
}

// ---------------------------------------------------------------------------
// E5 — Broadcast.
// ---------------------------------------------------------------------------

func BenchmarkE5_BroadcastNWaiters(b *testing.B) {
	const waiters = 8
	var (
		m    threads.Mutex
		c    threads.Condition
		gen  int
		wg   sync.WaitGroup
		stop bool
	)
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		threads.Fork(func() {
			defer wg.Done()
			m.Acquire()
			last := gen
			for !stop {
				for gen == last && !stop {
					c.Wait(&m)
				}
				last = gen
			}
			m.Release()
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Acquire()
		gen++
		m.Release()
		c.Broadcast()
	}
	b.StopTimer()
	m.Acquire()
	stop = true
	m.Release()
	c.Broadcast()
	wg.Wait()
}

// ---------------------------------------------------------------------------
// E6 — Mesa vs Hoare producer-consumer.
// ---------------------------------------------------------------------------

func benchPC(b *testing.B, mk func() baselines.Monitor) {
	b.ReportAllocs()
	var spurious float64
	for i := 0; i < b.N; i++ {
		res := workload.ProducerConsumer(mk(), workload.PCConfig{
			Producers: 2, Consumers: 2, ItemsPerProducer: 500, Capacity: 4, Work: 30,
		})
		spurious = res.SpuriousRate()
	}
	b.ReportMetric(spurious, "spurious-frac")
	b.ReportMetric(1000, "items/op") // fixed items per iteration, for ns/item math
}

func BenchmarkE6_ProdCons_Threads(b *testing.B) {
	benchPC(b, func() baselines.Monitor { return baselines.NewThreadsMonitor() })
}

func BenchmarkE6_ProdCons_Hoare(b *testing.B) {
	benchPC(b, func() baselines.Monitor { return baselines.NewHoareMonitor() })
}

func BenchmarkE6_ProdCons_GoSync(b *testing.B) {
	benchPC(b, func() baselines.Monitor { return baselines.NewNativeMonitor() })
}

// ---------------------------------------------------------------------------
// E7 — model checking.
// ---------------------------------------------------------------------------

func BenchmarkE7_ModelCheckAlertWait(b *testing.B) {
	var states int
	for i := 0; i < b.N; i++ {
		res := checker.Run(checker.SignalAbsorbedByDepartedThread(spec.VariantFinal))
		if res.Violation != nil {
			b.Fatal("final variant violated")
		}
		states = res.States
	}
	b.ReportMetric(float64(states), "states/run")
}

// ---------------------------------------------------------------------------
// E8 — Signal/Alert race.
// ---------------------------------------------------------------------------

func BenchmarkE8_SignalAlertRace(b *testing.B) {
	alerted := 0
	for i := 0; i < b.N; i++ {
		// Alternate the launch order: the runtime runs the most recent
		// goroutine first, and the implementation may resolve the
		// overlap either way.
		if bench.SignalAlertRaceTrial(i%2 == 0) {
			alerted++
		}
	}
	b.ReportMetric(float64(alerted)/float64(b.N), "alerted-frac")
}

// ---------------------------------------------------------------------------
// E9 — trace conformance throughput.
// ---------------------------------------------------------------------------

func BenchmarkE9_TraceConformance(b *testing.B) {
	// Record one traced run of E9's producer-consumer, then measure replay
	// cost.
	events, err := bench.TraceE9(bench.BuildPC, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.CheckAll(events); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(events)), "events/replay")
}

// ---------------------------------------------------------------------------
// E10 — throughput vs baselines.
// ---------------------------------------------------------------------------

func benchContention(b *testing.B, mk func() baselines.Monitor, thr int) {
	for i := 0; i < b.N; i++ {
		workload.MutexContention(mk(), workload.ContentionConfig{
			Threads: thr, Iters: 2000 / thr, CSWork: 20, Think: 100,
		})
	}
	b.ReportMetric(2000, "lockops/op")
}

func BenchmarkE10_Contention4_Threads(b *testing.B) {
	benchContention(b, func() baselines.Monitor { return baselines.NewThreadsMonitor() }, 4)
}

func BenchmarkE10_Contention4_Hoare(b *testing.B) {
	benchContention(b, func() baselines.Monitor { return baselines.NewHoareMonitor() }, 4)
}

func BenchmarkE10_Contention4_GoSync(b *testing.B) {
	benchContention(b, func() baselines.Monitor { return baselines.NewNativeMonitor() }, 4)
}

func BenchmarkE10_SimProdConsScaling(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		r1, err := workload.SimProducerConsumer(workload.SimPCConfig{
			Procs: 1, Producers: 4, Consumers: 4, ItemsPerProducer: 15,
			Capacity: 8, Work: 400, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		r4, err := workload.SimProducerConsumer(workload.SimPCConfig{
			Procs: 4, Producers: 4, Consumers: 4, ItemsPerProducer: 15,
			Capacity: 8, Work: 400, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		speedup = r1.Micros / r4.Micros
	}
	b.ReportMetric(speedup, "speedup-4proc")
}

// ---------------------------------------------------------------------------
// E11 — contended Acquire/Release ladder.
// ---------------------------------------------------------------------------

func benchLadder(b *testing.B, n int) {
	defer threads.EnableStats(threads.EnableStats(true))
	threads.ResetStats()
	b.ReportAllocs()
	bench.RunLadder(n, b.N)
	s := threads.SnapshotStats()
	fast := s.AcquireFast + s.AcquireSpin
	if total := fast + s.AcquireNub; total > 0 {
		b.ReportMetric(float64(fast)/float64(total), "fastpath-frac")
		b.ReportMetric(float64(s.AcquirePark)/float64(total), "parks/op")
	}
}

func BenchmarkE11_Ladder2(b *testing.B) { benchLadder(b, 2) }
func BenchmarkE11_Ladder4(b *testing.B) { benchLadder(b, 4) }
func BenchmarkE11_Ladder8(b *testing.B) { benchLadder(b, 8) }

// ---------------------------------------------------------------------------
// E12 — Signal/Broadcast storm.
// ---------------------------------------------------------------------------

func benchStorm(b *testing.B, waiters int) {
	b.ReportAllocs()
	bench.RunSignalStorm(waiters, b.N)
}

func BenchmarkE12_Storm4(b *testing.B) { benchStorm(b, 4) }
func BenchmarkE12_Storm8(b *testing.B) { benchStorm(b, 8) }

// ---------------------------------------------------------------------------
// E13 — AlertP under contention.
// ---------------------------------------------------------------------------

func BenchmarkE13_AlertPStorm(b *testing.B) {
	b.ReportAllocs()
	alerted := bench.RunAlertPStorm(8, b.N)
	b.ReportMetric(float64(alerted)/float64(b.N), "alerted-frac")
}

// ---------------------------------------------------------------------------
// E18 — deadline plumbing overhead (runtime timer vs time.AfterFunc + Alert).
// ---------------------------------------------------------------------------

// A deadline wait that can be satisfied at once arms nothing: an
// uncontended AcquireDeadline or AlertPDeadline is its TryAcquire or TryP.
// A wait that can block arms its thread's timer, waits, and stops the
// timer or awaits its fire on the way out; the ping-pongs below time that
// path. The timer is created once per thread and Reset afterwards, so the
// steady state must not allocate.

func BenchmarkE18_AcquireDeadlineUncontended(b *testing.B) {
	b.ReportAllocs()
	var m threads.Mutex
	deadline := time.Now().Add(time.Hour)
	for i := 0; i < b.N; i++ {
		if err := m.AcquireDeadline(deadline); err != nil {
			b.Fatal(err)
		}
		m.Release()
	}
}

// The same path on a Fork'd thread. TryAcquire comes first, so neither
// this thread nor the adopted benchmark goroutine above recovers SELF.
func BenchmarkE18_AcquireDeadlineForked(b *testing.B) {
	b.ReportAllocs()
	var m threads.Mutex
	deadline := time.Now().Add(time.Hour)
	threads.Join(threads.Fork(func() {
		for i := 0; i < b.N; i++ {
			if err := m.AcquireDeadline(deadline); err != nil {
				b.Error(err)
				return
			}
			m.Release()
		}
	}))
}

func BenchmarkE18_AlertPDeadlineUncontended(b *testing.B) {
	b.ReportAllocs()
	var s threads.Semaphore
	deadline := time.Now().Add(time.Hour)
	for i := 0; i < b.N; i++ {
		s.V()
		if err := s.AlertPDeadline(deadline); err != nil {
			b.Fatal(err)
		}
	}
}

// The hand-rolled pattern the deadline variants replace, done correctly:
// time.AfterFunc arms a runtime timer whose callback Alerts the waiter,
// and the epilogue stops the timer and spin-drains if the stop lost. This
// is the E18 baseline — same semantics, one heap-allocated timer per
// operation.
func BenchmarkE18_AfterFuncAlertBaseline(b *testing.B) {
	b.ReportAllocs()
	var m threads.Mutex
	self := threads.Self()
	for i := 0; i < b.N; i++ {
		timer := time.AfterFunc(time.Hour, func() { defer threads.Detach(); threads.Alert(self) })
		m.Acquire()
		m.Release()
		if !timer.Stop() {
			for !threads.TestAlert() {
			}
		}
	}
}

// BenchmarkE18_DeadlinePingPong is the blocking path: two Fork'd threads
// pass a token through a pair of semaphores, and every AlertPDeadline that
// finds its semaphore unavailable arms its thread's timer, parks until the
// other thread's V and stops the timer. One op is one round, a wait on
// each side.
func BenchmarkE18_DeadlinePingPong(b *testing.B) {
	far := time.Now().Add(time.Hour)
	benchPingPong(b, func(s *threads.Semaphore) error { return s.AlertPDeadline(far) })
}

// BenchmarkE18_AlertPPingPong is the same ping-pong with plain AlertP, so
// the timer's share of a blocking deadline wait is the difference of the
// two rows.
func BenchmarkE18_AlertPPingPong(b *testing.B) {
	benchPingPong(b, (*threads.Semaphore).AlertP)
}

func benchPingPong(b *testing.B, wait func(*threads.Semaphore) error) {
	b.ReportAllocs()
	var ping, pong threads.Semaphore
	ping.P()
	pong.P()
	side := func(in, out *threads.Semaphore) func() {
		return func() {
			for i := 0; i < b.N; i++ {
				if err := wait(in); err != nil {
					panic(err) // the other side would wait forever
				}
				out.V()
			}
		}
	}
	b.ResetTimer()
	t1 := threads.Fork(side(&ping, &pong))
	t2 := threads.Fork(side(&pong, &ping))
	ping.V()
	threads.Join(t1)
	threads.Join(t2)
}

// The fire path in aggregate: waiters whose deadlines all expire, so every
// op fires the thread's runtime timer, delivers an Alert and drains.
func BenchmarkE18_DeadlineExpires(b *testing.B) {
	b.ReportAllocs()
	// The paper's binary semaphore is INITIALLY available, so the zero
	// value carries one token; consume it so that — with no V anywhere —
	// every wait below genuinely times out.
	var s threads.Semaphore
	s.P()
	for i := 0; i < b.N; i++ {
		if err := s.AlertPDeadline(time.Now().Add(50 * time.Microsecond)); err != threads.DeadlineExceeded {
			b.Fatalf("AlertPDeadline = %v, want DeadlineExceeded", err)
		}
	}
}

// BenchmarkExperimentTables runs the full quick experiment suite once per
// iteration — a one-stop regeneration of every table (used with -benchtime
// 1x in CI and by the committed bench_output.txt).
func BenchmarkExperimentTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, e := range bench.All() {
			e.Run(bench.Options{Quick: true})
		}
	}
}

// ---------------------------------------------------------------------------
// E20 — the static-analysis gate itself.
// ---------------------------------------------------------------------------

// BenchmarkThreadsvetRepo runs full-repo threadsvet (every analyzer, one
// cross-package program) per iteration: load, type-check, summaries,
// entry-held fixpoint, guard inference, all checkers. The wall clock here
// is what every commit pays in CI; the e20.vet_ms baseline metric tracks
// the same quantity.
func BenchmarkThreadsvetRepo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pkgs, findings, err := bench.RunThreadsvetRepo()
		if err != nil {
			b.Fatal(err)
		}
		if findings != 0 {
			b.Fatalf("threadsvet reported %d findings over %d packages", findings, pkgs)
		}
	}
}
