// Command threadsbench regenerates every experiment in EXPERIMENTS.md: the
// reproductions of the paper's quantitative and behavioral claims (E1–E16),
// and maintains the benchmark-regression baseline (BENCH_<n>.json).
//
// Usage:
//
//	threadsbench                 # run everything, full-size sweeps
//	threadsbench -quick          # small sweeps (seconds, CI-friendly)
//	threadsbench -exp e1,e7      # a subset
//	threadsbench -list           # list experiments
//	threadsbench -csv dir        # also write each table as dir/<id>.csv
//	threadsbench -json BENCH_1.json        # collect metrics, write baseline
//	threadsbench -baseline BENCH_1.json    # collect metrics, compare; exit 1
//	                                       # on any >10% regression
//	threadsbench -baseline BENCH_1.json -timed -maxregress 0.25
//	                                       # also enforce wall-clock metrics
//
// Both -json and -baseline also collect per-core-count scaling curves: the
// E11–E13 contended workloads are re-run at each GOMAXPROCS value in -cores
// (default: doubling up to NumCPU), best of -samples runs per point, and
// the comparator additionally enforces curve *shape*
// (internal/bench.CompareCurves) on the compared core counts:
//
//	threadsbench -cores 1,2 -samples 1 -quick -baseline BENCH_1.json
//
// The profiling flags apply to any mode, so a sweep knee can be diagnosed
// with pprof instead of guesswork:
//
//	threadsbench -cores 8 -cpuprofile cpu.pb.gz -json /dev/null
//	threadsbench -exp e16 -mutexprofile mutex.pb.gz -blockprofile block.pb.gz
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"threads/internal/bench"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		quick      = flag.Bool("quick", false, "run reduced sweeps")
		exp        = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		list       = flag.Bool("list", false, "list experiments and exit")
		csvDir     = flag.String("csv", "", "directory to write per-table CSV files into")
		jsonOut    = flag.String("json", "", "collect regression metrics and write them to this file")
		baseline   = flag.String("baseline", "", "collect regression metrics and compare against this baseline")
		maxRegress = flag.Float64("maxregress", 0.10, "relative tolerance before a metric counts as regressed")
		timed      = flag.Bool("timed", false, "also enforce wall-clock metrics (same-machine comparisons only)")
		coresFlag  = flag.String("cores", "", "comma-separated GOMAXPROCS values for the scaling curves (default: 1,2,4,... up to NumCPU)")
		samples    = flag.Int("samples", 3, "runs per core count for the scaling curves; the best is kept")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		mutexProf  = flag.String("mutexprofile", "", "write a mutex-contention profile to this file")
		blockProf  = flag.String("blockprofile", "", "write a goroutine-blocking profile to this file")
	)
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProf, *mutexProf, *blockProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "threadsbench: %v\n", err)
		return 1
	}
	defer stopProfiles()

	if *jsonOut != "" || *baseline != "" {
		cores, err := parseCores(*coresFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "threadsbench: %v\n", err)
			return 2
		}
		return runRegression(regressRun{
			jsonOut: *jsonOut, baselinePath: *baseline,
			tol: *maxRegress, timed: *timed, quick: *quick,
			cores: cores, samples: *samples,
		})
	}

	exps := bench.All()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-4s %s\n", e.ID, e.Name)
		}
		return 0
	}
	want := map[string]bool{}
	if *exp != "" {
		for _, id := range strings.Split(*exp, ",") {
			want[strings.TrimSpace(strings.ToLower(id))] = true
		}
	}
	opts := bench.Options{Quick: *quick}
	ran := 0
	for _, e := range exps {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		start := time.Now()
		tables := e.Run(opts)
		for _, t := range tables {
			fmt.Println(t)
			if *csvDir != "" {
				name := filepath.Join(*csvDir, strings.ToLower(t.ID)+".csv")
				if err := os.WriteFile(name, []byte(t.CSV()), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "threadsbench: %v\n", err)
					return 1
				}
			}
		}
		fmt.Printf("  (%s completed in %v)\n\n", strings.ToUpper(e.ID), time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "threadsbench: no experiment matched %q (use -list)\n", *exp)
		return 2
	}
	return 0
}

// parseCores parses the -cores flag; empty means the default doubling set.
func parseCores(s string) ([]int, error) {
	if s == "" {
		return bench.DefaultSweepCores(), nil
	}
	var cores []int
	for _, f := range strings.Split(s, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || k < 1 {
			return nil, fmt.Errorf("-cores: %q is not a positive core count", f)
		}
		cores = append(cores, k)
	}
	return cores, nil
}

type regressRun struct {
	jsonOut, baselinePath string
	tol                   float64
	timed, quick          bool
	cores                 []int
	samples               int
}

// runRegression handles -json (write a fresh baseline) and -baseline
// (compare against a committed one); both collect the same metric and
// curve sets.
func runRegression(p regressRun) int {
	fmt.Fprintln(os.Stderr, "threadsbench: collecting regression metrics...")
	cur, err := bench.CollectRegressionMetrics(p.quick)
	if err != nil {
		fmt.Fprintf(os.Stderr, "threadsbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "threadsbench: sweeping cores %v x %d samples (NumCPU=%d)...\n",
		p.cores, p.samples, runtime.NumCPU())
	cur.Curves = bench.CollectSweep(p.cores, p.samples, p.quick)
	cur.Schema = 2
	cur.Note += "; schema 2: curves are per-GOMAXPROCS scaling measurements"
	for _, m := range cur.Metrics {
		kind := "stable"
		if !m.Stable {
			kind = "timed "
		}
		fmt.Printf("  %-28s %12.4g  (%s, %s is better)\n", m.Name, m.Value, kind, m.Better)
	}
	for _, c := range cur.Curves {
		var pts []string
		for _, pt := range c.Points {
			pts = append(pts, fmt.Sprintf("%dc %.4g", pt.Cores, pt.Value))
		}
		fmt.Printf("  %-28s %s\n", c.Name, strings.Join(pts, " | "))
	}
	if p.jsonOut != "" {
		if err := bench.WriteBaseline(p.jsonOut, cur); err != nil {
			fmt.Fprintf(os.Stderr, "threadsbench: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s (%d metrics, %d curves)\n", p.jsonOut, len(cur.Metrics), len(cur.Curves))
	}
	if p.baselinePath == "" {
		return 0
	}
	base, err := bench.ReadBaseline(p.baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "threadsbench: %v\n", err)
		return 1
	}
	regs := bench.Compare(base, cur, p.tol, p.timed)
	regs = append(regs, bench.CompareCurves(base.Curves, cur.Curves, p.cores, p.tol, p.timed)...)
	if len(regs) == 0 {
		fmt.Printf("no regressions against %s (tol %.0f%%, timed=%v, cores=%v)\n",
			p.baselinePath, p.tol*100, p.timed, p.cores)
		return 0
	}
	for _, r := range regs {
		fmt.Fprintf(os.Stderr, "threadsbench: REGRESSION %s\n", r)
	}
	return 1
}

// startProfiles arms the requested pprof profiles and returns the function
// that writes them out; profiles cover everything between the two calls.
func startProfiles(cpu, mutex, block string) (func(), error) {
	var stops []func()
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "threadsbench: wrote CPU profile to %s\n", cpu)
		})
	}
	if mutex != "" {
		runtime.SetMutexProfileFraction(1)
		stops = append(stops, func() { writeProfile("mutex", mutex) })
	}
	if block != "" {
		runtime.SetBlockProfileRate(1)
		stops = append(stops, func() { writeProfile("block", block) })
	}
	return func() {
		for _, stop := range stops {
			stop()
		}
	}, nil
}

func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "threadsbench: %v\n", err)
		return
	}
	defer f.Close()
	if p := pprof.Lookup(name); p != nil {
		if err := p.WriteTo(f, 0); err != nil {
			fmt.Fprintf(os.Stderr, "threadsbench: %s profile: %v\n", name, err)
			return
		}
		fmt.Fprintf(os.Stderr, "threadsbench: wrote %s profile to %s\n", name, path)
	}
}
