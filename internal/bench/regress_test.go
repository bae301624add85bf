package bench

import (
	"os"
	"path/filepath"
	"testing"
)

func metric(name string, v float64, better string, stable bool, slack float64) Metric {
	return Metric{Name: name, Value: v, Better: better, Stable: stable, Slack: slack}
}

func TestCompareDetectsRegressions(t *testing.T) {
	base := Baseline{Schema: 1, Metrics: []Metric{
		metric("instr", 5, "lower", true, 0),
		metric("fastpath", 0.90, "higher", true, 0.02),
		metric("allocs", 0, "lower", true, 0.05),
		metric("ns", 100, "lower", false, 0),
	}}

	t.Run("identical passes", func(t *testing.T) {
		if regs := Compare(base, base, 0.10, true); len(regs) != 0 {
			t.Fatalf("self-compare regressed: %v", regs)
		}
	})

	t.Run("within tolerance passes", func(t *testing.T) {
		cur := Baseline{Metrics: []Metric{
			metric("instr", 5, "lower", true, 0),
			metric("fastpath", 0.89, "higher", true, 0), // 0.90*(1-0.10)=0.81 < 0.89
			metric("allocs", 0.04, "lower", true, 0),    // 0*(1.10)+0.05 slack
			metric("ns", 109, "lower", false, 0),
		}}
		if regs := Compare(base, cur, 0.10, true); len(regs) != 0 {
			t.Fatalf("in-tolerance compare regressed: %v", regs)
		}
	})

	t.Run("lower-better regression caught", func(t *testing.T) {
		cur := Baseline{Metrics: []Metric{
			metric("instr", 6, "lower", true, 0), // 5*1.10=5.5 < 6
			metric("fastpath", 0.90, "higher", true, 0),
			metric("allocs", 0, "lower", true, 0),
			metric("ns", 100, "lower", false, 0),
		}}
		regs := Compare(base, cur, 0.10, false)
		if len(regs) != 1 || regs[0].Name != "instr" {
			t.Fatalf("want exactly instr to regress, got %v", regs)
		}
	})

	t.Run("higher-better regression caught", func(t *testing.T) {
		cur := Baseline{Metrics: []Metric{
			metric("instr", 5, "lower", true, 0),
			metric("fastpath", 0.70, "higher", true, 0), // < 0.81-0.02
			metric("allocs", 0, "lower", true, 0),
			metric("ns", 100, "lower", false, 0),
		}}
		regs := Compare(base, cur, 0.10, false)
		if len(regs) != 1 || regs[0].Name != "fastpath" {
			t.Fatalf("want exactly fastpath to regress, got %v", regs)
		}
	})

	t.Run("slack shields a zero baseline", func(t *testing.T) {
		cur := Baseline{Metrics: []Metric{
			metric("instr", 5, "lower", true, 0),
			metric("fastpath", 0.90, "higher", true, 0),
			metric("allocs", 0.06, "lower", true, 0), // above the 0.05 slack
			metric("ns", 100, "lower", false, 0),
		}}
		regs := Compare(base, cur, 0.10, false)
		if len(regs) != 1 || regs[0].Name != "allocs" {
			t.Fatalf("want exactly allocs to regress, got %v", regs)
		}
	})

	t.Run("missing metric is a regression", func(t *testing.T) {
		cur := Baseline{Metrics: []Metric{
			metric("instr", 5, "lower", true, 0),
			metric("fastpath", 0.90, "higher", true, 0),
			metric("ns", 100, "lower", false, 0),
		}}
		regs := Compare(base, cur, 0.10, false)
		if len(regs) != 1 || regs[0].Name != "allocs (missing)" {
			t.Fatalf("want allocs reported missing, got %v", regs)
		}
	})

	t.Run("timed metrics skipped unless requested", func(t *testing.T) {
		cur := Baseline{Metrics: []Metric{
			metric("instr", 5, "lower", true, 0),
			metric("fastpath", 0.90, "higher", true, 0),
			metric("allocs", 0, "lower", true, 0),
			metric("ns", 500, "lower", false, 0), // 5x slower
		}}
		if regs := Compare(base, cur, 0.10, false); len(regs) != 0 {
			t.Fatalf("timed metric enforced without -timed: %v", regs)
		}
		regs := Compare(base, cur, 0.10, true)
		if len(regs) != 1 || regs[0].Name != "ns" {
			t.Fatalf("want ns to regress with timed=true, got %v", regs)
		}
	})
}

func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	want := Baseline{Schema: 1, Note: "round trip", Metrics: []Metric{
		metric("a", 1.5, "lower", true, 0.1),
		metric("b", 2, "higher", false, 0),
	}}
	if err := WriteBaseline(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != want.Schema || got.Note != want.Note || len(got.Metrics) != len(want.Metrics) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, want)
	}
	for i := range want.Metrics {
		if got.Metrics[i] != want.Metrics[i] {
			t.Fatalf("metric %d mismatch: %+v vs %+v", i, got.Metrics[i], want.Metrics[i])
		}
	}
}

// TestCommittedBaseline checks the current build against the committed
// BENCH_1.json on stable (machine-independent) metrics only — the check
// cmd/threadsbench -baseline runs, wired into go test so it cannot be
// forgotten. Skipped if no baseline is committed yet.
func TestCommittedBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("collection is slow; run without -short")
	}
	path := filepath.Join("..", "..", "BENCH_1.json")
	if _, err := os.Stat(path); err != nil {
		t.Skip("no committed BENCH_1.json")
	}
	base, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := CollectRegressionMetrics(true)
	if err != nil {
		t.Fatal(err)
	}
	if regs := Compare(base, cur, 0.10, false); len(regs) != 0 {
		for _, r := range regs {
			t.Errorf("regression: %s", r)
		}
	}
}

// TestCollectOutsideModule runs the collector from a directory with no
// go.mod above it: it must return an error, not panic.
func TestCollectOutsideModule(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
	if _, err := CollectRegressionMetrics(true); err == nil {
		t.Fatal("CollectRegressionMetrics succeeded outside the module, want an error")
	}
}
