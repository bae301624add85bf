// Command perfbench is the repository benchmark for the Threads package. It
// runs one seeded, closed-loop workload and prints every metric by name and
// unit, ending with one JSON result line:
//
//	perfbench --workload pipeline|kv|verify --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics, measured with tracing
// and contention statistics off. With --trace 1 it makes a separate traced
// run: spans around the benchmark's own calls into each layer, the
// threads.SnapshotStats counters read at quiescence, and the stdlib twin,
// and reports the per-layer metrics. The benchmark never reaches inside the
// program: every number comes from timing public calls or reading public
// counters. See NOTES.md for why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// metricDef names one reported metric. The tables below must match
// BENCHMARK.json (a test checks that they do).
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p99_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"verify_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"mem_peak_mb", "MB", "lower"},
}

var perLayer = []metricDef{
	{"gate.fast_frac", "frac", "higher"},
	{"gate.spin_per_op", "1/op", "lower"},
	{"gate.park_per_op", "1/op", "lower"},
	{"gate.handoff_per_op", "1/op", "lower"},
	{"gate.backout_per_op", "1/op", "lower"},
	{"cond.wait_per_op", "1/op", "lower"},
	{"cond.park_frac", "frac", "lower"},
	{"cond.elided_frac", "frac", "higher"},
	{"cond.signal_woke_per_op", "1/op", "lower"},
	{"cond.morph_frac", "frac", "higher"},
	{"cond.bcast_woke_per_write", "1/write", "lower"},
	{"core.events", "count", "lower"},
	{"self.ns_per_call", "ns", "lower"},
	{"timer.arm_per_op", "1/op", "lower"},
	{"timer.fire_frac", "frac", "lower"},
	{"timer.drain_count", "count", "lower"},
	{"alert.wakes", "count", "lower"},
	{"threads.fork_us", "us", "lower"},
	{"threads.join_us", "us", "lower"},
	{"ring.push_us_p50", "us", "lower"},
	{"ring.push_us_p99", "us", "lower"},
	{"ring.pop_us_p50", "us", "lower"},
	{"ring.pop_us_p99", "us", "lower"},
	{"client.window_wait_us_p50", "us", "lower"},
	{"request.self_us_p50", "us", "lower"},
	{"rwlock.rlock_ns_p50", "ns", "lower"},
	{"rwlock.rlock_ns_p99", "ns", "lower"},
	{"rwlock.lock_us_p50", "us", "lower"},
	{"rwlock.lock_us_p99", "us", "lower"},
	{"explore.runs", "count", "lower"},
	{"explore.decisions_per_run", "1/run", "lower"},
	{"explore.prune_frac", "frac", "higher"},
	{"explore.us_per_run", "us", "lower"},
	{"explore.minimize_ms", "ms", "lower"},
	{"sim.run_us", "us", "lower"},
	{"sim.steps_per_run", "1/run", "lower"},
	{"trace.check_us", "us", "lower"},
	{"trace.events_per_run", "1/run", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.alloc_bytes_per_op", "B/op", "lower"},
	{"trace_overhead_frac", "frac", "lower"},
	{"error_frac", "frac", "lower"},
	{"twin.throughput_ratio", "x", "lower"},
	{"twin.latency_p99_ratio", "x", "higher"},
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload invocation measured.
type outcome struct {
	attempted, failed int
	firstErr          error
	values            map[string]float64
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	plain  func(seed int64, seconds float64, out io.Writer) outcome
	traced func(seed int64, seconds float64, spansDir string, out io.Writer) outcome
}{
	"pipeline": {runPipeline, tracePipeline},
	"kv":       {runKV, traceKV},
	"verify":   {runVerify, traceVerify},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: pipeline, kv or verify")
	seed := fs.Int64("seed", 1, "seed for the generated inputs")
	seconds := fs.Float64("seconds", 30, "measured seconds")
	traced := fs.Int("trace", 0, "1 for the traced run and per-layer metrics")
	spansDir := fs.String("spans-dir", "", "directory the traced run writes its spans to (none if empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload pipeline|kv|verify, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d %s\n",
		*name, *seed, *seconds, *traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	defs := endToEnd
	var o outcome
	if *traced == 1 {
		defs = perLayer
		o = w.traced(*seed, *seconds, *spansDir, stdout)
	} else {
		o = w.plain(*seed, *seconds, stdout)
	}
	if o.firstErr != nil {
		fmt.Fprintf(stdout, "output check failed: %v\n", o.firstErr)
	}
	res := result{
		Correct:   o.failed == 0 && o.firstErr == nil && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, res.Correct = 0, false
		}
		if !ok {
			fmt.Fprintf(stderr, "perfbench: workload %s did not measure %s\n", *name, d.name)
			return 1
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Fprintf(stdout, "%-28s %16.6f %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// splitSeconds divides a measured budget into n equal rounds.
func splitSeconds(seconds float64, n int) time.Duration {
	return time.Duration(seconds / float64(n) * float64(time.Second))
}
