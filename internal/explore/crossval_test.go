package explore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"threads/internal/checker"
)

// This file cross-validates the explorer's optimisations against the
// naive enumeration they must never out-argue: sleep-set partial-order
// reduction, the state-fingerprint cache, and the parallel frontier each
// claim to skip only redundant work, so on every registry litmus the
// verdict — and for broken litmuses the reproducibility of the
// certificate — must be identical to the unoptimized explorer's.

// crossValK returns the context bound a litmus is cross-validated at: 2,
// except for prodcons, phaser and mpsc, whose naive k=2 spaces alone take
// minutes (the optimized explorer covers them at k=2 in seconds, but the
// naive reference side would dominate the whole test suite), and except
// in -short mode.
func crossValK(lit *checker.Litmus) int {
	if testing.Short() || lit.Name == "prodcons" || lit.Name == "phaser" || lit.Name == "mpsc" {
		return 1
	}
	return 2
}

// optimizedConfigs are the option sets cross-validated against naive
// exploration. Cache configurations get a fresh cache per litmus run.
func optimizedConfigs() []struct {
	name  string
	por   PORMode
	cache bool
} {
	return []struct {
		name  string
		por   PORMode
		cache bool
	}{
		{"por", PORSleepSets, false},
		{"cache", POROff, true},
		{"por+cache", PORSleepSets, true},
	}
}

// TestCrossValidation holds every optimized configuration to the naive
// verdict on every registry litmus: clean programs stay clean, broken
// ones stay caught, and the reductions only ever shrink the per-bound
// schedule counts — never the set of distinguishable behaviors.
func TestCrossValidation(t *testing.T) {
	for _, lit := range checker.Registry() {
		lit := lit
		t.Run(lit.Name, func(t *testing.T) {
			k := crossValK(lit)
			naive := Explore(lit, Options{MaxPreemptions: k, Budget: testBudget})
			if naive.Partial {
				t.Fatalf("naive exploration partial after %d runs", naive.Runs)
			}
			for _, cfg := range optimizedConfigs() {
				cfg := cfg
				t.Run(cfg.name, func(t *testing.T) {
					o := Options{MaxPreemptions: k, Budget: testBudget, POR: cfg.por}
					if cfg.cache {
						o.Cache = NewStateCache()
					}
					rep := Explore(lit, o)
					if rep.Partial {
						t.Fatalf("optimized exploration partial after %d runs", rep.Runs)
					}
					if (rep.Violation == nil) != (naive.Violation == nil) {
						t.Fatalf("verdict diverged: optimized %v, naive %v", rep.Violation, naive.Violation)
					}
					if rep.Violation != nil {
						if rep.Violation.Kind != naive.Violation.Kind {
							t.Errorf("violation kind diverged: %q vs naive %q", rep.Violation.Kind, naive.Violation.Kind)
						}
						assertCertificateReproduces(t, lit, rep)
						return // counts are incomparable: both stopped early
					}
					for i, ks := range rep.PerK {
						if i >= len(naive.PerK) {
							break
						}
						if ks.Schedules == 0 {
							t.Errorf("k=%d: optimized explorer enumerated nothing", ks.K)
						}
						if ks.Schedules > naive.PerK[i].Schedules {
							t.Errorf("k=%d: optimized explored MORE schedules than naive: %d > %d",
								ks.K, ks.Schedules, naive.PerK[i].Schedules)
						}
					}
					if cfg.por == PORSleepSets && rep.Pruned == 0 && naive.Runs > len(naive.PerK) {
						t.Logf("note: sleep sets pruned nothing on %s at k<=%d", lit.Name, k)
					}
				})
			}
		})
	}
}

// assertCertificateReproduces checks a violating report's certificate: it
// exists, replays to the recorded violation kind, and its trace bytes are
// replay-deterministic.
func assertCertificateReproduces(t *testing.T, lit *checker.Litmus, rep *Report) {
	t.Helper()
	if rep.Certificate == nil {
		t.Fatal("violation reported without a certificate")
	}
	if len(rep.Certificate.Choices) > rep.MinimizedFrom {
		t.Errorf("minimization grew the certificate: %d > %d", len(rep.Certificate.Choices), rep.MinimizedFrom)
	}
	first, res, err := ReplayTraceBytes(lit, rep.Certificate)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil || res.Violation.Kind != rep.Certificate.Violation {
		t.Fatalf("certificate replay got %v, want kind %q", res.Violation, rep.Certificate.Violation)
	}
	again, _, err := ReplayTraceBytes(lit, rep.Certificate)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Fatalf("certificate replay is not byte-deterministic: %d vs %d trace bytes", len(first), len(again))
	}
}

// TestWorkerDeterminism: with no state cache, the merged per-bound
// coverage table is identical for every worker count — the parallel
// frontier partitions the space, it does not re-slice it.
func TestWorkerDeterminism(t *testing.T) {
	for _, c := range []struct {
		name string
		maxK int
	}{{"mutex", 2}, {"sem", 2}, {"alert", 2}, {"future", 1}} {
		name := c.name
		lit := checker.LitmusByName(name)
		if lit == nil {
			t.Fatalf("litmus %s missing", name)
		}
		for _, por := range []PORMode{POROff, PORSleepSets} {
			serial := Explore(lit, Options{MaxPreemptions: c.maxK, Budget: testBudget, POR: por, Workers: 1})
			parallel := Explore(lit, Options{MaxPreemptions: c.maxK, Budget: testBudget, POR: por, Workers: 4})
			if serial.Partial || parallel.Partial {
				t.Fatalf("%s por=%d: partial exploration", name, por)
			}
			if len(serial.PerK) != len(parallel.PerK) {
				t.Fatalf("%s por=%d: PerK length %d vs %d", name, por, len(serial.PerK), len(parallel.PerK))
			}
			for i := range serial.PerK {
				s, p := serial.PerK[i], parallel.PerK[i]
				if s.Schedules != p.Schedules || s.MaxDepth != p.MaxDepth || s.Pruned != p.Pruned {
					t.Errorf("%s por=%d k=%d: serial %+v vs 4 workers %+v", name, por, i, s, p)
				}
			}
		}
	}
}

// TestProbeRunBound: the parallel frontier runs every schedule once. The
// probe counts its own run, the leftmost schedule of its work item, and
// hands the other children along the run to the workers, so with no cache
// and no violation every run is a schedule. A probe that split at the first
// branching node re-ran each default child uncounted: alert took 166 runs
// for 91 schedules at k≤1 with 4 workers.
func TestProbeRunBound(t *testing.T) {
	for _, lit := range checker.Registry() {
		if lit.ExpectViolation {
			continue
		}
		for _, workers := range []int{2, 4} {
			for _, por := range []PORMode{POROff, PORSleepSets} {
				rep := Explore(lit, Options{MaxPreemptions: 1, Budget: testBudget, POR: por, Workers: workers})
				if rep.Partial || rep.Violation != nil {
					t.Fatalf("%s: partial or violating exploration: %+v", lit.Name, rep)
				}
				if rep.Runs != rep.Schedules() {
					t.Errorf("%s por=%d, %d workers: %d runs for %d schedules, want equal",
						lit.Name, por, workers, rep.Runs, rep.Schedules())
				}
			}
		}
	}
}

// TestBrokenLitmusEveryConfig: the intentionally broken litmuses must be
// caught — with a minimized, byte-identically replayable certificate —
// under every combination of reduction, cache and worker count.
func TestBrokenLitmusEveryConfig(t *testing.T) {
	for _, lit := range checker.Registry() {
		if !lit.ExpectViolation {
			continue
		}
		lit := lit
		for _, por := range []PORMode{POROff, PORSleepSets} {
			for _, withCache := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					o := Options{MaxPreemptions: 1, Budget: testBudget, POR: por, Workers: workers}
					if withCache {
						o.Cache = NewStateCache()
					}
					rep := Explore(lit, o)
					if rep.Violation == nil {
						t.Fatalf("%s por=%d cache=%v workers=%d: violation missed",
							lit.Name, por, withCache, workers)
					}
					assertCertificateReproduces(t, lit, rep)
				}
			}
		}
	}
}

// TestStateCacheResume: a persisted cache snapshot makes a repeat
// exploration of an unchanged clean litmus trivial (the root state is
// already covered), while a broken litmus is still re-caught — violating
// subtrees never complete, so they are never cached away.
func TestStateCacheResume(t *testing.T) {
	dir := t.TempDir()
	lit := checker.LitmusByName("mutex")
	path := filepath.Join(dir, "mutex.scache")

	cache := NewStateCache()
	first := Explore(lit, Options{MaxPreemptions: 1, Budget: testBudget, Cache: cache})
	if first.Violation != nil || first.Partial {
		t.Fatalf("first pass: %+v", first)
	}
	if cache.Len() == 0 {
		t.Fatal("exploration populated no cache entries")
	}
	if err := cache.Save(path, "mutex"); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadStateCache(path, "mutex")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Loaded() != cache.Len() {
		t.Fatalf("loaded %d entries, saved %d", loaded.Loaded(), cache.Len())
	}
	second := Explore(lit, Options{MaxPreemptions: 1, Budget: testBudget, Cache: loaded})
	if second.Violation != nil {
		t.Fatalf("resumed pass found a violation in a clean litmus: %v", second.Violation)
	}
	if second.CacheHits == 0 {
		t.Fatal("resumed exploration had no cache hits")
	}
	if second.Runs >= first.Runs {
		t.Fatalf("resume did not shrink the search: %d runs vs %d", second.Runs, first.Runs)
	}

	// A snapshot for the wrong litmus must be ignored, not trusted.
	other, err := LoadStateCache(path, "sem")
	if err != nil {
		t.Fatal(err)
	}
	if other.Loaded() != 0 {
		t.Fatalf("snapshot for mutex was accepted for sem: %d entries", other.Loaded())
	}

	// A broken litmus resumed from its own snapshot still fails.
	broken := checker.LitmusByName("alert-broken")
	bcache := NewStateCache()
	b1 := Explore(broken, Options{MaxPreemptions: 1, Budget: testBudget, Cache: bcache})
	if b1.Violation == nil {
		t.Fatal("first broken pass missed the violation")
	}
	bpath := filepath.Join(dir, "alert-broken.scache")
	if err := bcache.Save(bpath, "alert-broken"); err != nil {
		t.Fatal(err)
	}
	bloaded, err := LoadStateCache(bpath, "alert-broken")
	if err != nil {
		t.Fatal(err)
	}
	b2 := Explore(broken, Options{MaxPreemptions: 1, Budget: testBudget, Cache: bloaded})
	if b2.Violation == nil {
		t.Fatal("resumed broken pass lost the violation")
	}
	if b2.Violation.Kind != b1.Violation.Kind {
		t.Fatalf("resumed violation kind %q, first %q", b2.Violation.Kind, b1.Violation.Kind)
	}
}

// TestStateCacheCorruptFile: truncated snapshots error instead of loading
// garbage.
func TestStateCacheCorruptFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.scache")
	good := NewStateCache()
	good.put(1, 2, 1)
	good.validateRoot(7, 8)
	if err := good.Save(path, "mutex"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStateCache(path, "mutex"); err == nil {
		t.Fatal("truncated snapshot loaded without error")
	}
	// A missing file is not an error: the first nightly run has no snapshot.
	c, err := LoadStateCache(filepath.Join(dir, "absent.scache"), "mutex")
	if err != nil || c.Loaded() != 0 {
		t.Fatalf("missing snapshot: cache %v err %v", c.Loaded(), err)
	}
}
