package trace

import (
	"math/rand"
	"testing"
	"testing/quick"

	"threads/internal/spec"
)

// specTraceGen generates random histories of the interface from the
// specification itself: each step draws one action of one thread and takes
// it only if its Requires and When admit it on the generator's spec.State
// (and, for TestAlert, CheckEnsures admits the drawn result), resolving
// Signal's choice as one of Signal.Outcomes. Every history it generates is
// one the specification admits, so the checker must replay each clean:
// this property-tests the checker for false positives across a far larger
// space than the hand-written cases.
type specTraceGen struct {
	r       *rand.Rand
	s       *spec.State
	events  []Event
	threads []spec.ThreadID
	// waiting marks the threads inside a Wait (false) or an AlertWait
	// (true): after its Enqueue a thread acts again only through its
	// Resume (once removed from c) or, in an AlertWait, through
	// AlertResume.Raise.
	waiting map[spec.ThreadID]bool
}

func newSpecTraceGen(r *rand.Rand, n int) *specTraceGen {
	g := &specTraceGen{r: r, s: spec.NewState(), waiting: map[spec.ThreadID]bool{}}
	for i := 1; i <= n; i++ {
		g.threads = append(g.threads, spec.ThreadID(i))
	}
	return g
}

// step tries one random action of one random thread; it emits nothing if
// the specification does not admit it (the caller just retries).
func (g *specTraceGen) step() {
	const m, c, s = spec.MutexID(1), spec.CondID(1), spec.SemID(1)
	t := g.threads[g.r.Intn(len(g.threads))]
	var a spec.Action
	if alertable, waiting := g.waiting[t]; waiting {
		switch {
		case !alertable:
			a = spec.Resume{T: t, M: m, C: c}
		case g.r.Intn(2) == 0:
			a = spec.AlertResumeReturn{T: t, M: m, C: c}
		default:
			a = spec.AlertResumeRaise{T: t, M: m, C: c, Variant: spec.VariantFinal}
		}
	} else {
		switch g.r.Intn(13) {
		case 0:
			a = spec.Acquire{T: t, M: m}
		case 1:
			a = spec.Release{T: t, M: m}
		case 2:
			a = spec.Enqueue{T: t, M: m, C: c}
		case 3:
			a = g.signal(t, c)
		case 4:
			a = spec.Broadcast{T: t, C: c}
		case 5:
			a = spec.P{T: t, S: s}
		case 6:
			a = spec.V{T: t, S: s}
		case 7:
			a = spec.AlertPReturn{T: t, S: s}
		case 8:
			a = spec.AlertPRaise{T: t, S: s}
		case 9:
			a = spec.Alert{T: t, Target: g.threads[g.r.Intn(len(g.threads))]}
		case 10:
			a = spec.TestAlert{T: t, Result: g.r.Intn(2) == 0}
		case 11:
			a = spec.PriBoost{T: t, Old: g.r.Intn(3), New: g.r.Intn(4)}
		case 12:
			a = spec.PriRestore{T: t, Old: g.r.Intn(4), New: g.r.Intn(3)}
		}
	}
	if a.Requires(g.s) != nil || !a.When(g.s) {
		return
	}
	if ta, ok := a.(spec.TestAlert); ok && ta.CheckEnsures(g.s) != nil {
		return
	}
	a.Apply(g.s)
	switch a.(type) {
	case spec.Enqueue:
		g.waiting[t] = g.r.Intn(2) == 0
	case spec.Resume, spec.AlertResumeReturn, spec.AlertResumeRaise:
		delete(g.waiting, t)
	}
	g.events = append(g.events, Event{Seq: uint64(len(g.events) + 1), Action: a})
}

// signal draws one of the outcomes Signal's ENSURES admits and names the
// members it removes.
func (g *specTraceGen) signal(t spec.ThreadID, c spec.CondID) spec.Signal {
	sig := spec.Signal{T: t, C: c}
	outs := sig.Outcomes(g.s)
	post := outs[g.r.Intn(len(outs))].Cond(c)
	for _, w := range g.s.Conds[c].Members() {
		if !post.Contains(w) {
			sig.Removed = append(sig.Removed, w)
		}
	}
	return sig
}

// TestQuickLegalTracesAccepted: every history the specification generates
// replays clean.
func TestQuickLegalTracesAccepted(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := newSpecTraceGen(r, 3)
		for steps := 0; steps < 200; steps++ {
			g.step()
		}
		n, err := CheckAll(g.events)
		if err != nil {
			t.Logf("seed %d: generated history rejected after %d events: %v", seed, n, err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCorruptedTracesMostlyRejected: specific, always-illegal
// corruptions of a legal trace are detected. (Arbitrary mutations can be
// legal, so the test targets corruptions with guaranteed violations.)
func TestQuickCorruptedTracesMostlyRejected(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := newSpecTraceGen(r, 3)
		for steps := 0; steps < 100; steps++ {
			g.step()
		}
		// Corruption: append an Acquire by one thread then another —
		// the second must be rejected whatever came before.
		evs := append([]Event{}, g.events...)
		n := uint64(len(evs))
		evs = append(evs,
			Event{Seq: n + 1, Action: spec.Acquire{T: 1, M: 99}},
			Event{Seq: n + 2, Action: spec.Acquire{T: 2, M: 99}},
		)
		if _, err := CheckAll(evs); err == nil {
			t.Logf("seed %d: double acquire not rejected", seed)
			return false
		}
		// Corruption: a Resume with no Enqueue at all.
		evs2 := append([]Event{}, g.events...)
		evs2 = append(evs2, Event{Seq: n + 1, Action: spec.Resume{T: 9, M: 98, C: 77}})
		if _, err := CheckAll(evs2); err == nil {
			t.Logf("seed %d: resume without enqueue not rejected", seed)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckAllReusedAllocationFree: a Checker replaying into the storage
// an earlier replay grew allocates nothing, as the explorer's runner
// replays one trace per schedule.
func TestCheckAllReusedAllocationFree(t *testing.T) {
	events := generatedHistory(1, 400)
	ck := New()
	if _, err := ck.CheckAll(events); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() { _, _ = ck.CheckAll(events) }); allocs != 0 {
		t.Errorf("CheckAll of %d events allocates %.1f objects per replay, want 0", len(events), allocs)
	}
}

// BenchmarkCheckAll replays one generated history per iteration on a
// reused Checker and reports the cost per event.
func BenchmarkCheckAll(b *testing.B) {
	events := generatedHistory(1, 400)
	ck := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ck.CheckAll(events); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
}

// generatedHistory is the history steps attempts of a three-thread
// specTraceGen draw from seed.
func generatedHistory(seed int64, steps int) []Event {
	g := newSpecTraceGen(rand.New(rand.NewSource(seed)), 3)
	for i := 0; i < steps; i++ {
		g.step()
	}
	return g.events
}
