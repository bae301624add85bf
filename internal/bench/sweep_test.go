package bench

import (
	"os"
	"path/filepath"
	"testing"
)

func curve(name, better string, stable bool, slack float64, pts ...Point) Curve {
	return Curve{Name: name, Better: better, Stable: stable, Slack: slack, Points: pts}
}

func pt(cores int, v float64) Point { return Point{Cores: cores, Value: v} }

func TestCompareCurvesDetectsRegressions(t *testing.T) {
	base := []Curve{
		curve("ladder_allocs", "lower", true, 0.05, pt(1, 1.0), pt(2, 1.0), pt(4, 1.0)),
		curve("ladder_ns", "lower", false, 0, pt(1, 100), pt(2, 120), pt(4, 150)),
	}

	t.Run("identical passes", func(t *testing.T) {
		if regs := CompareCurves(base, base, nil, 0.10, true); len(regs) != 0 {
			t.Fatalf("self-compare regressed: %v", regs)
		}
	})

	t.Run("missing curve is loud", func(t *testing.T) {
		regs := CompareCurves(base, base[1:], nil, 0.10, false)
		if len(regs) != 1 || regs[0].Name != "ladder_allocs (missing curve)" {
			t.Fatalf("want the dropped curve reported, got %v", regs)
		}
	})

	t.Run("missing point is loud", func(t *testing.T) {
		cur := []Curve{
			curve("ladder_allocs", "lower", true, 0.05, pt(1, 1.0), pt(2, 1.0)),
			base[1],
		}
		regs := CompareCurves(base, cur, nil, 0.10, false)
		if len(regs) != 1 || regs[0].Name != "ladder_allocs@4c (missing point)" {
			t.Fatalf("want the dropped point reported, got %v", regs)
		}
	})

	t.Run("cores restricts the comparison", func(t *testing.T) {
		cur := []Curve{
			curve("ladder_allocs", "lower", true, 0.05, pt(1, 1.0), pt(2, 1.0)),
			curve("ladder_ns", "lower", false, 0, pt(1, 100), pt(2, 120)),
		}
		// A {1,2} smoke run compared on its prefix: no regressions...
		if regs := CompareCurves(base, cur, []int{1, 2}, 0.10, true); len(regs) != 0 {
			t.Fatalf("prefix compare regressed: %v", regs)
		}
		// ...but a requested core count the run failed to produce is loud.
		regs := CompareCurves(base, cur, []int{1, 2, 4}, 0.10, false)
		if len(regs) != 1 || regs[0].Name != "ladder_allocs@4c (missing point)" {
			t.Fatalf("want the requested-but-absent point reported, got %v", regs)
		}
	})

	t.Run("stable pointwise regression caught", func(t *testing.T) {
		cur := []Curve{
			curve("ladder_allocs", "lower", true, 0.05, pt(1, 1.0), pt(2, 1.0), pt(4, 1.5)),
			base[1],
		}
		regs := CompareCurves(base, cur, nil, 0.10, false)
		if len(regs) != 1 || regs[0].Name != "ladder_allocs@4c" {
			t.Fatalf("want exactly the 4-core point to regress, got %v", regs)
		}
	})

	t.Run("knee caught even when every point is within scalar tolerance", func(t *testing.T) {
		// Every point improved or held, so the pointwise check passes — but
		// the curve now rises 1.0 -> 1.67x by 4 cores where the baseline
		// was flat: a knee appeared.
		cur := []Curve{
			curve("ladder_allocs", "lower", true, 0.05, pt(1, 0.6), pt(2, 0.6), pt(4, 1.0)),
			base[1],
		}
		regs := CompareCurves(base, cur, nil, 0.10, false)
		if len(regs) != 1 || regs[0].Name != "ladder_allocs@4c (knee)" {
			t.Fatalf("want the knee flagged, got %v", regs)
		}
	})

	t.Run("timed curves skipped unless requested", func(t *testing.T) {
		cur := []Curve{
			base[0],
			curve("ladder_ns", "lower", false, 0, pt(1, 100), pt(2, 500), pt(4, 900)),
		}
		if regs := CompareCurves(base, cur, nil, 0.10, false); len(regs) != 0 {
			t.Fatalf("timed curve enforced without timed=true: %v", regs)
		}
		if regs := CompareCurves(base, cur, nil, 0.10, true); len(regs) != 2 {
			t.Fatalf("want both degraded points flagged with timed=true, got %v", regs)
		}
	})

	t.Run("timed compares shape, not absolute speed", func(t *testing.T) {
		// Uniformly 3x slower — a different machine — but the same shape:
		// passes even with timed=true.
		cur := []Curve{
			base[0],
			curve("ladder_ns", "lower", false, 0, pt(1, 300), pt(2, 360), pt(4, 450)),
		}
		if regs := CompareCurves(base, cur, nil, 0.10, true); len(regs) != 0 {
			t.Fatalf("uniform slowdown flagged as shape regression: %v", regs)
		}
		// Same 1-core speed, collapsing scaling: flagged.
		cur[1] = curve("ladder_ns", "lower", false, 0, pt(1, 100), pt(2, 120), pt(4, 400))
		regs := CompareCurves(base, cur, nil, 0.10, true)
		if len(regs) != 1 || regs[0].Name != "ladder_ns@4c (shape)" {
			t.Fatalf("want the scaling collapse flagged, got %v", regs)
		}
	})
}

func TestSweepBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sweep.json")
	want := Baseline{Schema: 2, Note: "round trip", Metrics: []Metric{
		metric("a", 1.5, "lower", true, 0.1),
	}, Curves: []Curve{
		curve("c1", "lower", true, 0.05, pt(1, 1), pt(2, 2)),
		curve("c2", "lower", false, 0.75, pt(1, 100), pt(2, 140)),
	}}
	if err := WriteBaseline(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != 2 || len(got.Curves) != 2 {
		t.Fatalf("schema/curves lost: %+v", got)
	}
	for i, c := range want.Curves {
		g := got.Curves[i]
		if g.Name != c.Name || g.Better != c.Better || g.Stable != c.Stable || g.Slack != c.Slack || len(g.Points) != len(c.Points) {
			t.Fatalf("curve %d mismatch: %+v vs %+v", i, g, c)
		}
		for j := range c.Points {
			if g.Points[j] != c.Points[j] {
				t.Fatalf("curve %d point %d mismatch: %+v vs %+v", i, j, g.Points[j], c.Points[j])
			}
		}
	}
}

// TestSchemaOneBackwardCompatible pins the interop promise: a schema-1 file
// (no curves key) reads cleanly, and comparing against its empty curve set
// enforces nothing.
func TestSchemaOneBackwardCompatible(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_old.json")
	data := `{"schema": 1, "metrics": [{"name": "x", "value": 1, "better": "lower", "stable": true}]}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Curves != nil {
		t.Fatalf("schema-1 file grew curves: %+v", b.Curves)
	}
	cur := []Curve{curve("anything", "lower", true, 0, pt(1, 99))}
	if regs := CompareCurves(b.Curves, cur, nil, 0.10, true); len(regs) != 0 {
		t.Fatalf("empty baseline produced regressions: %v", regs)
	}
}

// TestCollectSweepShape runs a tiny sweep end to end and checks the curve
// structure: two curves per workload, one point per requested core count,
// in order, with sane values.
func TestCollectSweepShape(t *testing.T) {
	ws := []sweepWorkload{{
		id: "tiny.ladder2", run: func(n int) { RunLadder(2, n) },
		quickN: 2_000, fullN: 2_000, allocSlack: 0.05, timedSlack: 0.75,
	}}
	cores := []int{1, 2}
	curves := collectSweep(ws, cores, 2, true)
	if len(curves) != 2 {
		t.Fatalf("want 2 curves (ns, allocs), got %d", len(curves))
	}
	if curves[0].Name != "tiny.ladder2_ns_per_op" || curves[0].Stable {
		t.Fatalf("first curve should be the timed ns curve: %+v", curves[0])
	}
	if curves[1].Name != "tiny.ladder2_allocs_per_op" || !curves[1].Stable {
		t.Fatalf("second curve should be the stable allocs curve: %+v", curves[1])
	}
	for _, c := range curves {
		if len(c.Points) != len(cores) {
			t.Fatalf("%s: want %d points, got %+v", c.Name, len(cores), c.Points)
		}
		for i, p := range c.Points {
			if p.Cores != cores[i] {
				t.Fatalf("%s: point %d at %d cores, want %d", c.Name, i, p.Cores, cores[i])
			}
			if p.Value < 0 {
				t.Fatalf("%s: negative value %v", c.Name, p.Value)
			}
		}
	}
	if curves[0].Points[0].Value == 0 {
		t.Fatal("ns/op of a real workload measured as zero")
	}
}

// TestCommittedSweepBaseline is the committed-curve gate, mirroring the
// curve half of make bench-check: a quick 2-core-count sweep of the current
// build must hold the stable curves of BENCH_1.json on the compared prefix
// — and an injected regression on those same curves must be caught (the
// acceptance test that the comparator cannot silently pass).
func TestCommittedSweepBaseline(t *testing.T) {
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
	if base.Schema != 2 || len(base.Curves) == 0 {
		t.Fatalf("BENCH_1.json is not a schema-2 curve baseline: schema=%d curves=%d", base.Schema, len(base.Curves))
	}
	cores := []int{1, 2}
	cur := CollectSweep(cores, 1, true)
	if regs := CompareCurves(base.Curves, cur, cores, 0.10, false); len(regs) != 0 {
		for _, r := range regs {
			t.Errorf("sweep regression: %s", r)
		}
	}

	// Injected regression: quadruple one stable curve's high-core point in
	// the collected data and require the comparator to flag it.
	injected := make([]Curve, len(cur))
	copy(injected, cur)
	found := false
	for i, c := range injected {
		if !c.Stable {
			continue
		}
		pts := make([]Point, len(c.Points))
		copy(pts, c.Points)
		last := &pts[len(pts)-1]
		last.Value = last.Value*4 + 10 // past any tolerance and slack
		injected[i].Points = pts
		found = true
		break
	}
	if !found {
		t.Fatal("no stable curve collected to inject into")
	}
	if regs := CompareCurves(base.Curves, injected, cores, 0.10, false); len(regs) == 0 {
		t.Fatal("injected regression passed the curve comparator")
	}
}
