// Core-count scaling sweep: the E11–E13 contended workloads measured across
// GOMAXPROCS values, producing per-core-count curves (schema-2 baselines),
// plus the curve comparator that fails when the *shape* of a curve
// regresses — a knee appearing at a lower core count — even when every
// individual point is still within scalar tolerance. Experiment E16 uses
// the same machinery to measure direct hand-off, the scalability fix,
// before and after.
package bench

import (
	"fmt"
	"runtime"
	"strings"

	"threads/internal/core"
)

// Point is one measurement of a scaling curve: the metric's value with
// GOMAXPROCS set to Cores.
type Point struct {
	Cores int     `json:"cores"`
	Value float64 `json:"value"`
}

// Curve is a metric measured across core counts. Better, Stable and Slack
// mean what they mean on Metric; the comparator additionally enforces the
// curve's shape (CompareCurves).
type Curve struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Stable bool    `json:"stable"`
	Slack  float64 `json:"slack,omitempty"`
	Points []Point `json:"points"`
}

// value returns the point at the given core count.
func (c Curve) value(cores int) (float64, bool) {
	for _, p := range c.Points {
		if p.Cores == cores {
			return p.Value, true
		}
	}
	return 0, false
}

// DefaultSweepCores returns the core counts a sweep measures by default:
// doubling from 1 up to NumCPU, always ending at NumCPU itself (so a
// 6-core machine sweeps 1, 2, 4, 6).
func DefaultSweepCores() []int {
	n := runtime.NumCPU()
	var cores []int
	for k := 1; k < n; k *= 2 {
		cores = append(cores, k)
	}
	return append(cores, n)
}

// sweepWorkload is one contended workload the sweep runs at every core
// count. Each yields two curves: <id>_ns_per_op (timed) and
// <id>_allocs_per_op (stable).
type sweepWorkload struct {
	id         string
	run        func(total int)
	quickN     int
	fullN      int
	allocSlack float64 // absolute slack for the allocs/op curve
	timedSlack float64 // normalized-shape slack for the ns/op curve
}

// sweepWorkloads are the E11–E13 contended drivers, the same ones the
// scalar regression metrics time at default GOMAXPROCS.
func sweepWorkloads() []sweepWorkload {
	return []sweepWorkload{
		{"e11.ladder8", func(n int) { RunLadder(8, n) }, 100_000, 500_000, 0.05, 0.75},
		{"e12.storm8", func(n int) { RunSignalStorm(8, n) }, 10_000, 50_000, 0.10, 0.75},
		{"e13.alertp8", func(n int) { _ = RunAlertPStorm(8, n) }, 25_000, 100_000, 0.10, 0.75},
	}
}

// CollectSweep measures the E11–E13 scaling curves at each of the given
// core counts, taking the best of samples runs per point (minimum for
// lower-is-better metrics: the least-disturbed run is the measurement, the
// rest is scheduler noise). GOMAXPROCS is restored before returning.
// Values above runtime.NumCPU() oversubscribe the machine; the curve is
// still meaningful (it measures contention behavior, not parallel
// speedup), and BENCH_1.json documents the host it was collected on.
func CollectSweep(cores []int, samples int, quick bool) []Curve {
	return collectSweep(sweepWorkloads(), cores, samples, quick)
}

func collectSweep(ws []sweepWorkload, cores []int, samples int, quick bool) []Curve {
	if samples < 1 {
		samples = 1
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var curves []Curve
	for _, w := range ws {
		total := w.fullN
		if quick {
			total = w.quickN
		}
		ns := Curve{Name: w.id + "_ns_per_op", Better: "lower", Stable: false, Slack: w.timedSlack}
		al := Curve{Name: w.id + "_allocs_per_op", Better: "lower", Stable: true, Slack: w.allocSlack}
		for _, k := range cores {
			runtime.GOMAXPROCS(k)
			bestNs, bestAl := 0.0, 0.0
			for s := 0; s < samples; s++ {
				n, a := timeAndAllocs(total, w.run)
				if s == 0 || n < bestNs {
					bestNs = n
				}
				if s == 0 || a < bestAl {
					bestAl = a
				}
			}
			ns.Points = append(ns.Points, Point{Cores: k, Value: bestNs})
			al.Points = append(al.Points, Point{Cores: k, Value: bestAl})
		}
		curves = append(curves, ns, al)
	}
	return curves
}

// CompareCurves checks cur's scaling curves against base's and returns
// every violation. cores restricts the comparison to those core counts
// (nil: every core count base has) — a smoke sweep at {1,2} is compared
// only on its prefix, but a core count that was requested and is absent
// from the current run fails loudly, exactly like a missing scalar metric.
//
// Rules, per base curve:
//
//   - Curve present in base but absent from cur: regression ("missing
//     curve"). Base point at a compared core count with no current point:
//     regression ("missing point"). Silent drops would let a scaling
//     collapse slide.
//   - Stable curves are compared pointwise like scalar metrics (relative
//     tol plus absolute Slack), and then by shape: each point's rise over
//     the curve's own best value at <= that core count must not exceed the
//     baseline's rise at the same core count by more than tol. A curve
//     that was flat to 8 cores and now knees at 4 fails the shape check
//     even if every point is individually within scalar tolerance.
//   - Timed curves are compared only when timed is true, and then on
//     normalized shape, not absolute value: both curves are divided by
//     their own first-point value and the normalized points compared with
//     tol plus Slack. Absolute ns/op varies across hosts; how it scales
//     with core count is the property worth holding, with generous slack
//     (the committed timedSlack) because even shape is noisy on shared CI
//     machines.
func CompareCurves(base, cur []Curve, cores []int, tol float64, timed bool) []Regression {
	byName := make(map[string]Curve, len(cur))
	for _, c := range cur {
		byName[c.Name] = c
	}
	want := func(k int) bool {
		if cores == nil {
			return true
		}
		for _, c := range cores {
			if c == k {
				return true
			}
		}
		return false
	}
	var regs []Regression
	for _, b := range base {
		if !b.Stable && !timed {
			continue
		}
		c, ok := byName[b.Name]
		if !ok {
			regs = append(regs, Regression{Name: b.Name + " (missing curve)", Base: float64(len(b.Points)), Cur: 0, Better: b.Better})
			continue
		}
		// The compared subset of base points, in base (ascending) order.
		var pts []Point
		for _, p := range b.Points {
			if want(p.Cores) {
				pts = append(pts, p)
			}
		}
		if len(pts) == 0 {
			continue
		}
		missing := false
		for _, p := range pts {
			if _, ok := c.value(p.Cores); !ok {
				regs = append(regs, Regression{Name: fmt.Sprintf("%s@%dc (missing point)", b.Name, p.Cores), Base: p.Value, Cur: 0, Better: b.Better})
				missing = true
			}
		}
		if missing {
			continue // the shape checks below need every compared point
		}
		if b.Stable {
			pw := comparePointwise(b, c, pts, tol)
			regs = append(regs, pw...)
			// A point the scalar rule already flagged would knee trivially;
			// report each core count once.
			flagged := make(map[string]bool, len(pw))
			for _, r := range pw {
				flagged[r.Name] = true
			}
			for _, r := range compareKnees(b, c, pts, tol) {
				if !flagged[strings.TrimSuffix(r.Name, " (knee)")] {
					regs = append(regs, r)
				}
			}
		} else {
			regs = append(regs, compareNormalized(b, c, pts, tol)...)
		}
	}
	return regs
}

// comparePointwise applies the scalar-metric rule at every compared core
// count of a stable curve.
func comparePointwise(b, c Curve, pts []Point, tol float64) []Regression {
	var regs []Regression
	for _, p := range pts {
		v, _ := c.value(p.Cores)
		worse := false
		switch b.Better {
		case "higher":
			worse = v < p.Value*(1-tol)-b.Slack
		default:
			worse = v > p.Value*(1+tol)+b.Slack
		}
		if worse {
			regs = append(regs, Regression{Name: fmt.Sprintf("%s@%dc", b.Name, p.Cores), Base: p.Value, Cur: v, Better: b.Better})
		}
	}
	return regs
}

// compareKnees is the shape check on a stable curve: the rise of each point
// over the running best (minimum for lower-is-better) at <= its core count,
// current vs baseline. Points whose running best sits inside the curve's
// absolute Slack are skipped — down there the ratio is noise, and the
// pointwise check already bounds the values.
func compareKnees(b, c Curve, pts []Point, tol float64) []Regression {
	var regs []Regression
	lower := b.Better != "higher"
	envB, envC := 0.0, 0.0
	for i, p := range pts {
		v, _ := c.value(p.Cores)
		if i == 0 {
			envB, envC = p.Value, v
			continue
		}
		if lower {
			envB, envC = min(envB, p.Value), min(envC, v)
		} else {
			envB, envC = max(envB, p.Value), max(envC, v)
		}
		if envB <= b.Slack || envC <= b.Slack || envB <= 0 || envC <= 0 {
			continue
		}
		riseB, riseC := p.Value/envB, v/envC
		if !lower {
			riseB, riseC = envB/p.Value, envC/v
		}
		if riseC > riseB*(1+tol) {
			regs = append(regs, Regression{Name: fmt.Sprintf("%s@%dc (knee)", b.Name, p.Cores), Base: riseB, Cur: riseC, Better: "lower"})
		}
	}
	return regs
}

// compareNormalized is the timed-curve rule: both curves normalized by
// their own value at the first compared core count, then compared with tol
// plus the curve's Slack.
func compareNormalized(b, c Curve, pts []Point, tol float64) []Regression {
	ref := pts[0]
	refC, _ := c.value(ref.Cores)
	if ref.Value <= 0 || refC <= 0 {
		return nil
	}
	var regs []Regression
	for _, p := range pts[1:] {
		v, _ := c.value(p.Cores)
		normB, normC := p.Value/ref.Value, v/refC
		worse := false
		switch b.Better {
		case "higher":
			worse = normC < normB*(1-tol)-b.Slack
		default:
			worse = normC > normB*(1+tol)+b.Slack
		}
		if worse {
			regs = append(regs, Regression{Name: fmt.Sprintf("%s@%dc (shape)", b.Name, p.Cores), Base: normB, Cur: normC, Better: b.Better})
		}
	}
	return regs
}

// ---------------------------------------------------------------------------
// E16 — the scalability walls, before and after the fixes.
// ---------------------------------------------------------------------------

// E16 sweeps the contended workloads across core counts with direct
// hand-off off (the paper-faithful configuration every earlier experiment
// measured) and adaptive.
func E16(o Options) []*Table {
	t := &Table{
		ID:    "E16",
		Title: "scaling walls: paper-faithful vs scalability fixes (adaptive direct hand-off)",
		Note: `"paper" is the protocol of SRC Report 20 exactly: TAS Nub spin lock,
Release clears the bit and wakes a waiter to retry (barging allowed).
"shipping" adds the adaptive direct hand-off (core.HandoffAdaptive, the
default: Release gifts the gate to a waiter only once it has waited past the
starvation threshold). Both use the paper's test-and-set Nub lock.
Values are ns/op, best of 2 samples; the knee is the first core count where
ns/op exceeds twice the curve's minimum. Core counts above NumCPU
oversubscribe the host: they expose convoy behavior, not parallel speedup.`,
		Headers: []string{"workload", "config", "cores", "ns/op", "vs best", "knee@"},
	}
	// Sweep to at least 8 "cores" even on smaller hosts: GOMAXPROCS above
	// NumCPU oversubscribes the scheduler, which still exposes the
	// contention walls (that is what a wall is — more runnable lock users
	// than the lock can serve).
	cores := DefaultSweepCores()
	for k := cores[len(cores)-1] * 2; k <= 8; k *= 2 {
		cores = append(cores, k)
	}
	if o.Quick {
		cores = cores[:min(2, len(cores))]
	}
	samples := 2
	configs := []struct {
		name    string
		handoff core.HandoffMode
	}{
		{"paper (TAS, wake-retry)", core.HandoffOff},
		{"shipping (TAS, adaptive hand-off)", core.HandoffAdaptive},
	}
	prevH := core.CurrentHandoffMode()
	defer core.SetHandoffMode(prevH)
	for _, w := range sweepWorkloads() {
		for _, cfg := range configs {
			core.SetHandoffMode(cfg.handoff)
			curves := collectSweep([]sweepWorkload{w}, cores, samples, o.Quick)
			ns := curves[0]
			best := ns.Points[0].Value
			for _, p := range ns.Points {
				best = min(best, p.Value)
			}
			knee := "-"
			for _, p := range ns.Points {
				if p.Value > 2*best {
					knee = fmt.Sprintf("%dc", p.Cores)
					break
				}
			}
			for _, p := range ns.Points {
				t.Add(w.id, cfg.name, p.Cores, F(p.Value, 1), F(p.Value/best, 2), knee)
			}
		}
	}
	return []*Table{t}
}
