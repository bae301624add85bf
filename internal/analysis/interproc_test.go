package analysis

import (
	"strings"
	"testing"
)

// requireNoFindings runs the analyzer over one fixture package alone — the
// old same-package engine's view — and requires silence, proving the
// cross-package finding genuinely needs the multi-package program.
func requireNoFindings(t *testing.T, fixture string, a *Analyzer, opts map[string]string) {
	t.Helper()
	pkg := loadFixture(t, fixture)
	d := &Driver{Analyzers: []*Analyzer{a}, Options: opts}
	findings, err := d.Run(pkg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if !f.Suppressed {
			t.Errorf("same-package run of %s found %s: %s — the cross-package fixture no longer proves a miss",
				fixture, f.Analyzer, f.Message)
		}
	}
}

// The acquire and release live in pairdep; only its summaries reveal that
// pairuse.leak returns holding Mu.
func TestLockPairCrossPackage(t *testing.T) {
	runFixturePkgs(t, []string{"pairdep", "pairuse"}, LockPair, nil)
	requireNoFindings(t, "pairuse", LockPair, nil)
}

// The A → B edge is closed only through orderdep.LockB.
func TestLockOrderCrossPackage(t *testing.T) {
	runFixturePkgs(t, []string{"orderdep", "orderuse"}, LockOrder, nil)
	requireNoFindings(t, "orderuse", LockOrder, nil)
}

// The allocation is inside nubdep.Grow, reachable only through its
// summary.
func TestNubDisciplineCrossPackage(t *testing.T) {
	runFixturePkgs(t, []string{"nubdep", "nubuse"}, NubDiscipline, nil)
	requireNoFindings(t, "nubuse", NubDiscipline, nil)
}

// A directive at the violation's origin suppresses the finding reported in
// the importing package and must count as used, not stale.
func TestIgnoreDirectiveCrossPackage(t *testing.T) {
	findings := runFixturePkgs(t, []string{"ignoredep", "ignoreuse"}, NubDiscipline, nil)
	suppressed := 0
	for _, f := range findings {
		if f.Suppressed {
			suppressed++
			continue
		}
		if strings.Contains(f.Message, "suppresses nothing") {
			t.Errorf("cross-package directive reported stale: %s", f.Message)
		} else {
			t.Errorf("unexpected finding: %s", f.Message)
		}
	}
	if suppressed != 1 {
		t.Errorf("got %d suppressed findings, want 1 (the spin-locked call to Grow)", suppressed)
	}
}

// Corner cases of the sequential walker, pinned under lockpair.
func TestSeqwalkCorners(t *testing.T) {
	runFixturePkgs(t, []string{"seqcornerdep", "seqcorner"}, LockPair, nil)
}
