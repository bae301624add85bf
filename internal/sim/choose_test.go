package sim

import (
	"errors"
	"testing"
)

// TestChooseControlsInterleaving: with Choose set, the external decision
// function sees every point where more than one thread could run, gets
// the candidates in ascending thread-ID order, and its choice determines
// the interleaving exactly.
func TestChooseControlsInterleaving(t *testing.T) {
	run := func(pickLast bool) (order []string, decisions int) {
		// Choose runs on a simulated thread's carrier, where t.Fatal
		// must not be called: record a bad order and fail after Run.
		var badOrder []string
		k := NewKernel(Config{
			Procs: 2,
			Choose: func(prev *T, cands []*T) int {
				decisions++
				for i := 1; i < len(cands); i++ {
					if cands[i-1].id >= cands[i].id && badOrder == nil {
						for _, c := range cands {
							badOrder = append(badOrder, c.Name())
						}
					}
				}
				if pickLast {
					return len(cands) - 1
				}
				return 0
			},
		})
		var w Word
		for _, name := range []string{"a", "b"} {
			name := name
			k.Spawn(name, func(e *Env) {
				for i := 0; i < 3; i++ {
					e.Load(&w)
					order = append(order, name)
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if badOrder != nil {
			t.Fatalf("candidates not in ascending ID order: %v", badOrder)
		}
		return order, decisions
	}

	first, d1 := run(false)
	last, d2 := run(true)
	if d1 == 0 || d2 == 0 {
		t.Fatal("Choose was never consulted")
	}
	// Always picking candidate 0 runs thread a to completion first; always
	// picking the highest index runs b first.
	want1 := []string{"a", "a", "a", "b", "b", "b"}
	want2 := []string{"b", "b", "b", "a", "a", "a"}
	if !eqStrings(first, want1) {
		t.Errorf("pick-first order = %v, want %v", first, want1)
	}
	if !eqStrings(last, want2) {
		t.Errorf("pick-last order = %v, want %v", last, want2)
	}
}

// TestChooseSeesPrev: prev is nil at the first decision and afterwards is
// the thread that executed the previous instruction.
func TestChooseSeesPrev(t *testing.T) {
	var prevs []string
	k := NewKernel(Config{
		Procs: 2,
		Choose: func(prev *T, cands []*T) int {
			if prev == nil {
				prevs = append(prevs, "<nil>")
			} else {
				prevs = append(prevs, prev.Name())
			}
			return 0
		},
	})
	var w Word
	for _, name := range []string{"a", "b"} {
		k.Spawn(name, func(e *Env) {
			e.Load(&w)
			e.Load(&w)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(prevs) == 0 || prevs[0] != "<nil>" {
		t.Fatalf("first decision saw prev %v, want <nil>", prevs)
	}
	for _, p := range prevs[1:] {
		if p != "a" && p != "b" {
			t.Errorf("prev = %q, want a thread name", p)
		}
	}
}

// TestChoosePanicsOnBadIndex: an out-of-range index is a harness bug and
// must fail loudly, not corrupt the schedule.
func TestChoosePanicsOnBadIndex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range Choose index")
		}
	}()
	k := NewKernel(Config{
		Procs:  2,
		Choose: func(prev *T, cands []*T) int { return len(cands) },
	})
	var w Word
	for _, name := range []string{"a", "b"} {
		k.Spawn(name, func(e *Env) { e.Load(&w); e.Load(&w) })
	}
	_ = k.Run()
}

// TestTASAwaitBlocksUntilClear: TASAwait acquires a clear word like TAS,
// blocks instead of spinning while it is set, and wakes when the holder
// stores zero — so a TASAwait-based lock cannot livelock and its waiters
// make no progress (and burn no steps) while blocked.
func TestTASAwaitBlocksUntilClear(t *testing.T) {
	k := NewKernel(Config{Procs: 2, MaxSteps: 10_000})
	var lock Word
	var order []string
	hold := func(name string) func(*Env) {
		return func(e *Env) {
			e.TASAwait(&lock)
			order = append(order, name+"+")
			e.Work(3)
			order = append(order, name+"-")
			e.Store(&lock, 0)
		}
	}
	k.Spawn("a", hold("a"))
	k.Spawn("b", hold("b"))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 {
		t.Fatalf("order = %v, want 4 entries", order)
	}
	// Whoever entered first must leave before the other enters: the
	// critical sections may not interleave.
	if order[0][0] != order[1][0] || order[2][0] != order[3][0] {
		t.Fatalf("critical sections interleaved: %v", order)
	}
}

// TestTASAwaitWakesOnAdd: a decrement that brings the word to zero (the
// Release fast path uses Add) also wakes awaiters.
func TestTASAwaitWakesOnAdd(t *testing.T) {
	// Pin the schedule so the holder takes the lock first: candidate 0 is
	// always the lowest-ID (first-spawned) thread.
	k := NewKernel(Config{
		Procs:    2,
		MaxSteps: 10_000,
		Choose:   func(prev *T, cands []*T) int { return 0 },
	})
	var lock Word
	done := false
	k.Spawn("holder", func(e *Env) {
		if e.TAS(&lock) != 0 {
			t.Error("initial TAS should win")
		}
		e.Work(5)
		e.Add(&lock, ^uint64(0)) // 1 + (-1) = 0: must wake the awaiter
	})
	k.Spawn("waiter", func(e *Env) {
		e.TASAwait(&lock)
		done = true
		e.Store(&lock, 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("awaiter never acquired the word")
	}
}

// TestTASAwaitNoThinAirWakeup: a waiter that lost a wakeup race re-blocks
// cleanly, and deregistered waiters are not woken by later clears.
func TestTASAwaitManyWaiters(t *testing.T) {
	k := NewKernel(Config{Procs: 4, MaxSteps: 100_000})
	var lock Word
	var acquired int
	for _, name := range []string{"a", "b", "c", "d"} {
		k.Spawn(name, func(e *Env) {
			for i := 0; i < 3; i++ {
				e.TASAwait(&lock)
				acquired++
				e.Work(2)
				e.Store(&lock, 0)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if acquired != 12 {
		t.Fatalf("acquired %d times, want 12", acquired)
	}
}

// TestWordReusedAcrossKernels: a word that one kernel has touched keeps
// only its value in the next: that kernel's next ID, scope 0, and none of
// the first kernel's waiters, so a clear there wakes nothing.
func TestWordReusedAcrossKernels(t *testing.T) {
	var lock Word
	k1 := NewKernel(Config{MaxSteps: 10_000})
	k1.SetWordScope(&lock, 1<<3)
	k1.Spawn("stuck", func(e *Env) {
		e.TASAwait(&lock)
		e.TASAwait(&lock) // blocks for good: the run deadlocks
	})
	var de *DeadlockError
	if err := k1.Run(); !errors.As(err, &de) {
		t.Fatalf("first run = %v, want a deadlock", err)
	}

	var first Word
	var fps []Footprint
	k2 := NewKernel(Config{MaxSteps: 10_000, OnStep: func(_ *T, fp Footprint) {
		if fp.Kind != AccessNone {
			fps = append(fps, fp)
		}
	}})
	k2.Spawn("clear", func(e *Env) {
		e.Load(&first)
		if v := e.Load(&lock); v != 1 {
			t.Errorf("value = %d, want the 1 the first run left", v)
		}
		e.Store(&lock, 0)
	})
	if err := k2.Run(); err != nil {
		t.Fatalf("second run: %v", err)
	}
	want := []Footprint{
		{Words: [2]uint32{1, 0}, Kind: AccessRead},
		{Words: [2]uint32{2, 0}, Kind: AccessRead},
		{Words: [2]uint32{2, 0}, Kind: AccessWrite},
	}
	if len(fps) != len(want) {
		t.Fatalf("footprints = %+v, want %+v", fps, want)
	}
	for i := range want {
		if fps[i] != want[i] {
			t.Errorf("footprint %d = %+v, want %+v", i, fps[i], want[i])
		}
	}
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
