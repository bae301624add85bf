package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"threads"
)

// round is one set-up, timed phase and output check of a workload. A run
// makes several rounds and reports one quantile of each metric's per-round
// values (see summarize).
type round struct {
	setup, timed         time.Duration
	verify               time.Duration // verify: exploration and check; pipeline, kv: drain and shutdown
	ops                  int           // completed requests, table ops or explored schedules
	attempted, failed    int
	err                  error
	cpu                  time.Duration // process CPU time during the timed phase
	heapPeak             uint64        // peak Go heap during the timed phase, above the round's baseline
	gcCycles, allocBytes uint64        // Go runtime counters' growth during the timed phase
	latUS                []float32     // latency samples, dropped by finish
	m                    map[string]float64
}

// setupsPerRound is how many extra set-ups a run times before each round
// for setup_s. One set-up of pipeline or kv takes microseconds, so it
// takes the median of many to read it steadily, and spreading them over
// the run lets them see the host as the rounds do.
const setupsPerRound = 5

// timeSetups sets up and tears down setupsPerRound times and appends each
// set-up's time in seconds to d.
func timeSetups(d []float64, setup func() (teardown func())) []float64 {
	for i := 0; i < setupsPerRound; i++ {
		start := time.Now()
		teardown := setup()
		d = append(d, time.Since(start).Seconds())
		teardown()
	}
	return d
}

// median sorts v and returns its median.
func median(v []float64) float64 {
	sort.Float64s(v)
	return quantile(v, 0.5)
}

// runRounds is the untraced run of pipeline and kv: n rounds made by next,
// each after timeSetups, summarized at quantile q.
func runRounds(n int, q float64, next func() round, setup func() (teardown func()), out io.Writer) outcome {
	var setups []float64
	rounds := make([]round, 0, n)
	for i := 0; i < n; i++ {
		setups = timeSetups(setups, setup)
		r := next()
		fmt.Fprintf(out, "round %d: %v\n", i, &r)
		rounds = append(rounds, r)
	}
	o := summarize(rounds, q)
	o.values["setup_s"] = median(setups)
	return o
}

// roundFunc runs one round of pipeline or kv: traced when tr is non-nil,
// on the stdlib twin when twin is set. It also returns the round's writes
// (rule updates or puts), which cond.bcast_woke_per_write is counted per.
type roundFunc func(tr *tracer, twin bool) (round, int)

// traceRounds is the traced run of pipeline and kv. Its time is split into
// three phases of n rounds each, as long as the untraced run's: untraced
// rounds for reference, traced rounds with statistics on, and the stdlib
// twin on the same inputs, each summarized at quantile q. spanMetrics, if
// not nil, maps the traced rounds' span self times onto the workload's own
// per-layer metrics.
func traceRounds(name string, seed int64, n int, q float64, next roundFunc, spanMetrics func(st *[numSpanNames][]float64, v map[string]float64), spansDir string, out io.Writer) outcome {
	v := layerValues()
	phase := func(tr *tracer, twin bool) ([]round, int) {
		rs := make([]round, n)
		writes := 0
		for i := range rs {
			r, w := next(tr, twin)
			rs[i], writes = r, writes+w
		}
		return rs, writes
	}

	plain, _ := phase(nil, false)
	goRuntimeMetrics(plain, v)

	tr := newTracer()
	var traced []round
	var writes int
	s := withStats(func() { traced, writes = phase(tr, false) })
	statsMetrics(s, totalOps(traced), writes, v)
	st := tr.selfTimes()
	v["rwlock.rlock_ns_p50"] = quantile(st[spRLock], 0.50)
	v["rwlock.rlock_ns_p99"] = quantile(st[spRLock], 0.99)
	v["rwlock.lock_us_p50"] = quantile(st[spLock], 0.50) / 1e3
	v["rwlock.lock_us_p99"] = quantile(st[spLock], 0.99) / 1e3
	if spanMetrics != nil {
		spanMetrics(&st, v)
	}
	v["trace_overhead_frac"] = overhead(plain, traced)

	twin, _ := phase(nil, true)
	twinRatios(summarize(plain, q), summarize(twin, q), v, out)

	o := summarize(append(append(plain, traced...), twin...), q)
	o.values = v
	v["error_frac"] = float64(o.failed) / float64(max(o.attempted, 1))
	if err := tr.write(spansDir, fmt.Sprintf("%s-seed%d", name, seed)); err != nil && o.firstErr == nil {
		o.firstErr = err
	}
	return o
}

// The quantile of its per-round values that a workload reports for each
// end-to-end metric.
const (
	// betterQuartile is the 25th percentile of a lower-is-better metric and
	// the 75th of throughput. It suits pipeline and verify: other tenants of
	// the host only ever slow their rounds down, often for a minute at a
	// time, so the better quartile tracks the program's own cost even when
	// most of a run's rounds were disturbed, while a change to the program
	// moves every round.
	betterQuartile = 0.25
	// middle is the median. It suits kv, whose rounds the host moves both
	// ways: in a share of rounds that differs from run to run, its two
	// busy clients sit parked less and the round runs up to 1.7 times as
	// fast, so its better quartile jumps with that share while the median
	// stays with the bulk of the rounds (see NOTES.md).
	middle = 0.5
)

// summarize turns rounds into the end-to-end metrics: each is quantile q of
// its per-round values if lower is better, and quantile 1-q if higher is.
// setup_s is timed apart from the rounds (see timeSetups), so it is left to
// the caller.
func summarize(rounds []round, q float64) outcome {
	var o outcome
	per := map[string][]float64{}
	for _, r := range rounds {
		o.attempted += r.attempted
		o.failed += r.failed
		if o.firstErr == nil {
			o.firstErr = r.err
		}
		r.finish()
		for k, v := range r.m {
			per[k] = append(per[k], v)
		}
	}
	o.values = make(map[string]float64, len(endToEnd))
	for _, d := range endToEnd {
		v := per[d.name]
		sort.Float64s(v)
		if d.better == "higher" {
			o.values[d.name] = quantile(v, 1-q)
		} else {
			o.values[d.name] = quantile(v, q)
		}
	}
	return o
}

// finish computes the round's end-to-end metrics and drops its latency
// samples, which may be scratch memory the next round reuses.
func (r *round) finish() {
	if r.m != nil {
		return
	}
	lat := r.latUS
	sortFloat32(lat)
	r.latUS = nil
	r.m = map[string]float64{
		"throughput_ops_s": float64(r.ops) / r.timed.Seconds(),
		"latency_p50_us":   float64(quantile(lat, 0.50)),
		"latency_p99_us":   float64(quantile(lat, 0.99)),
		"cpu_us_per_op":    float64(r.cpu.Nanoseconds()) / 1e3 / float64(max(r.ops, 1)),
		"verify_s":         r.verify.Seconds(),
		"mem_peak_mb":      float64(r.heapPeak) / 1e6,
	}
}

// String is the round's one-line report.
func (r *round) String() string {
	r.finish()
	m := r.m
	return fmt.Sprintf("%d ops in %.3fs: %.0f ops/s p50 %.2fus p99 %.2fus cpu %.3fus/op setup %.3fms verify %.3fms heap %.4fMB gc %d alloc %dB",
		r.ops, r.timed.Seconds(), m["throughput_ops_s"], m["latency_p50_us"], m["latency_p99_us"], m["cpu_us_per_op"],
		r.setup.Seconds()*1e3, m["verify_s"]*1e3, m["mem_peak_mb"], r.gcCycles, r.allocBytes)
}

func sortFloat32(s []float32) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

// quantile is the nearest-rank quantile of sorted samples (0 if none).
func quantile[T float32 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler records the peak of the Go heap's live-and-unswept objects
// while a timed phase runs. runtime/metrics reads do not stop the world.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func heapNow() uint64 {
	s := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapBaseline collects garbage and returns the heap in use. A round reads
// it before its set-up, when the heap holds the benchmark's inputs and
// recording buffers and no part of the program, and reports the timed
// phase's heap peak above it. It collects twice: objects the previous
// round left in a sync.Pool survive the first collection.
func heapBaseline() uint64 {
	runtime.GC()
	runtime.GC()
	return heapNow()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			h.peak = max(h.peak, heapNow())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	h.wg.Wait()
	return max(h.peak, heapNow())
}

// timedPhase brackets a timed phase with the CPU clock, the heap sampler
// and the runtime's GC and allocation counters. The set-up's garbage is
// collected first, untimed, so the heap peak reflects what the program
// holds and allocates.
type timedPhase struct {
	start time.Time
	cpu   time.Duration
	rt    goRuntime
	base  uint64
	heap  *heapSampler
}

// beginTimed starts a timed phase whose heap peak is reported above base,
// the round's heapBaseline.
func beginTimed(base uint64) *timedPhase {
	runtime.GC()
	p := &timedPhase{heap: startHeapSampler(), rt: readGoRuntime(), base: base}
	p.cpu = cpuTime()
	p.start = time.Now()
	return p
}

// end records the phase's wall time, CPU time, heap peak and runtime
// counters into r.
func (p *timedPhase) end(r *round) {
	r.timed = time.Since(p.start)
	r.cpu = cpuTime() - p.cpu
	rt := readGoRuntime()
	r.gcCycles, r.allocBytes = rt.gcCycles-p.rt.gcCycles, rt.allocBytes-p.rt.allocBytes
	if peak := p.heap.Stop(); peak > p.base {
		r.heapPeak = peak - p.base
	}
}

// goRuntime is the runtime's cumulative GC cycle and allocated byte counts.
type goRuntime struct{ gcCycles, allocBytes uint64 }

func readGoRuntime() goRuntime {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return goRuntime{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

// goRuntimeMetrics reports untraced rounds' GC cycles and allocation per
// operation.
func goRuntimeMetrics(rounds []round, v map[string]float64) {
	var gc, alloc uint64
	for _, r := range rounds {
		gc += r.gcCycles
		alloc += r.allocBytes
	}
	v["go.gc_cycles"] = float64(gc)
	v["go.alloc_bytes_per_op"] = float64(alloc) / float64(max(totalOps(rounds), 1))
}

func totalOps(rounds []round) int {
	n := 0
	for _, r := range rounds {
		n += r.ops
	}
	return n
}

// timePerOp is the rounds' timed wall time per operation.
func timePerOp(rounds []round) float64 {
	var t time.Duration
	for _, r := range rounds {
		t += r.timed
	}
	return t.Seconds() / float64(max(totalOps(rounds), 1))
}

// twinRatios reports the stdlib twin's throughput and p99 over the Threads
// ones; they are a reference, not gated.
func twinRatios(threads, twin outcome, v map[string]float64, out io.Writer) {
	v["twin.throughput_ratio"] = twin.values["throughput_ops_s"] / threads.values["throughput_ops_s"]
	v["twin.latency_p99_ratio"] = twin.values["latency_p99_us"] / threads.values["latency_p99_us"]
	fmt.Fprintf(out, "threads: %.0f ops/s p99 %.2fus; stdlib twin: %.0f ops/s p99 %.2fus\n",
		threads.values["throughput_ops_s"], threads.values["latency_p99_us"],
		twin.values["throughput_ops_s"], twin.values["latency_p99_us"])
}

// layerValues returns every per-layer metric at zero: a layer a workload
// does not exercise reads 0.
func layerValues() map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		v[d.name] = 0
	}
	return v
}

// statsMetrics maps a quiescent threads.SnapshotStats onto the gate, cond,
// timer and alert metrics, per completed operation of the workload.
func statsMetrics(s threads.Stats, ops, writes int, v map[string]float64) {
	per := func(n uint64) float64 { return float64(n) / float64(max(ops, 1)) }
	frac := func(n, d uint64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	acquires := s.AcquireFast + s.AcquireSpin + s.AcquireNub + s.PFast + s.PSpin + s.PNub
	v["gate.fast_frac"] = frac(s.AcquireFast+s.PFast, acquires)
	v["gate.spin_per_op"] = per(s.AcquireSpin + s.PSpin)
	v["gate.park_per_op"] = per(s.AcquirePark + s.PPark)
	v["gate.handoff_per_op"] = per(s.ReleaseHandoff + s.VHandoff)
	v["gate.backout_per_op"] = per(s.AcquireBackout + s.PBackout)
	v["cond.wait_per_op"] = per(s.WaitCount)
	v["cond.park_frac"] = frac(s.WaitPark, s.WaitCount)
	v["cond.elided_frac"] = frac(s.WaitElided, s.WaitCount)
	v["cond.signal_woke_per_op"] = per(s.SignalWoke)
	v["cond.morph_frac"] = frac(s.SignalMorph, s.SignalNub)
	if writes > 0 {
		v["cond.bcast_woke_per_write"] = float64(s.BcastWoke) / float64(writes)
	}
	v["timer.arm_per_op"] = per(s.TimerArm)
	v["timer.fire_frac"] = frac(s.TimerFire, s.TimerArm)
	v["timer.drain_count"] = float64(s.TimerDrain)
	v["alert.wakes"] = float64(s.AlertWakes)
	v["core.events"] = float64(statsTotal(s))
}

// statsTotal sums every counter in the snapshot.
func statsTotal(s threads.Stats) uint64 {
	return s.AcquireFast + s.AcquireSpin + s.AcquireNub + s.AcquireBackout + s.AcquirePark +
		s.ReleaseFast + s.ReleaseNub + s.ReleaseHandoff +
		s.PFast + s.PSpin + s.PNub + s.PBackout + s.PPark + s.VFast + s.VNub + s.VHandoff +
		s.WaitCount + s.WaitSpin + s.WaitElided + s.WaitPark +
		s.SignalFast + s.SignalNub + s.SignalWoke + s.SignalMorph + s.SignalRepop +
		s.BcastFast + s.BcastNub + s.BcastWoke +
		s.Alerts + s.AlertWakes + s.AlertedWait + s.AlertedP + s.TestAlertTrue +
		s.TimerArm + s.TimerFire + s.TimerCancel + s.TimerDrain +
		s.PriBoost + s.PriRestore
}

// withStats runs fn with the contention counters on and zeroed, and
// returns the snapshot fn's caller reads after every thread has joined.
func withStats(fn func()) threads.Stats {
	prev := threads.EnableStats(true)
	threads.ResetStats()
	fn()
	s := threads.SnapshotStats()
	threads.EnableStats(prev)
	return s
}

// overhead is the traced rounds' extra time per operation, as a share of
// the untraced rounds'.
func overhead(untraced, traced []round) float64 {
	return timePerOp(traced)/timePerOp(untraced) - 1
}

// mix64 is the splitmix64 finalizer: the benchmark's seeded hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// nproc is the worker and client count: one per processor.
func nproc() int { return runtime.GOMAXPROCS(0) }
