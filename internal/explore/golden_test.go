package explore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"threads/internal/checker"
)

// The golden tests pin the explorer's decision tree, its state
// fingerprints' equivalence classes and its minimized certificates to
// committed files, so a change that means to restructure the simulator or
// the explorer without changing what they explore can prove it did not.
// A deliberate change to the tree (a new litmus, a new yield point)
// replaces the golden table with the one the failing test logs, and says
// why in its commit.

// goldenCacheLitmuses are explored at k<=2 with a fresh state cache; their
// per-bound hit counts move whenever two states the fingerprint used to
// tell apart become equal, or the other way round.
var goldenCacheLitmuses = []string{"mutex", "alert", "peterson", "deadline", "rwlock"}

// decisionTreeTable renders, serially: every registry litmus at k<=1 with
// sleep sets off and on (per-bound schedules, prunes and depth, then runs
// and decisions), and the per-bound cache hits of goldenCacheLitmuses at
// k<=2 with sleep sets on.
func decisionTreeTable(t *testing.T) string {
	var b strings.Builder
	for _, lit := range checker.Registry() {
		for _, por := range []PORMode{POROff, PORSleepSets} {
			rep := Explore(lit, Options{MaxPreemptions: 1, POR: por, Budget: testBudget, Workers: 1})
			if rep.Partial {
				t.Fatalf("%s: exploration partial after %d runs", lit.Name, rep.Runs)
			}
			for _, ks := range rep.PerK {
				fmt.Fprintf(&b, "%s por=%d k=%d schedules=%d pruned=%d maxdepth=%d\n",
					lit.Name, por, ks.K, ks.Schedules, ks.Pruned, ks.MaxDepth)
			}
			fmt.Fprintf(&b, "%s por=%d runs=%d decisions=%d\n", lit.Name, por, rep.Runs, rep.Decisions)
		}
	}
	for _, name := range goldenCacheLitmuses {
		lit := checker.LitmusByName(name)
		rep := Explore(lit, Options{MaxPreemptions: 2, POR: PORSleepSets, Cache: NewStateCache(), Budget: testBudget, Workers: 1})
		if rep.Partial || rep.Violation != nil {
			t.Fatalf("%s: cached exploration partial or violating: %+v", name, rep)
		}
		for _, ks := range rep.PerK {
			fmt.Fprintf(&b, "%s cache k=%d schedules=%d hits=%d\n", name, ks.K, ks.Schedules, ks.CacheHits)
		}
	}
	return b.String()
}

// TestDecisionTreeGolden compares decisionTreeTable with the committed
// table line by line.
func TestDecisionTreeGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "decision-tree.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := decisionTreeTable(t)
	if got == string(want) {
		return
	}
	t.Logf("the table now reads:\n%s", got)
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	bad := 0
	for i := 0; i < max(len(gl), len(wl)) && bad < 10; i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			bad++
		}
	}
}

// TestBrokenCertificatesGolden explores every intentionally broken litmus
// the way CI's sweep does (k<=2, sleep sets, one worker) and requires the
// minimized certificate to equal the committed one byte for byte, and the
// committed one to replay to its recorded violation.
func TestBrokenCertificatesGolden(t *testing.T) {
	for _, lit := range checker.Registry() {
		if !lit.ExpectViolation {
			continue
		}
		lit := lit
		t.Run(lit.Name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", lit.Name+".cert.json"))
			if err != nil {
				t.Fatal(err)
			}
			cert, err := DecodeCertificate(want)
			if err != nil {
				t.Fatal(err)
			}
			if res := Replay(lit, cert); res.Violation == nil || res.Violation.Kind != cert.Violation {
				t.Fatalf("committed certificate replays to %v, want kind %q", res.Violation, cert.Violation)
			}
			rep := Explore(lit, Options{MaxPreemptions: 2, POR: PORSleepSets, Budget: testBudget, Workers: 1})
			if rep.Certificate == nil {
				t.Fatalf("no violation found in %d runs", rep.Runs)
			}
			got, err := rep.Certificate.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, bytes.TrimSpace(want)) {
				t.Errorf("minimized certificate changed:\n got  %s\n want %s", got, want)
			}
		})
	}
}
