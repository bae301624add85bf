package core

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// withHandoffMode runs the test with the hand-off policy pinned, restoring
// the previous policy afterwards. The policy is process-global, so tests
// using this helper must not run in parallel with other core tests that
// read it (none of them call t.Parallel).
func withHandoffMode(t *testing.T, m HandoffMode) {
	t.Helper()
	prev := SetHandoffMode(m)
	t.Cleanup(func() { SetHandoffMode(prev) })
}

// statsDelta runs fn with statistics enabled and returns the counter
// movement it caused. Counters are cumulative and process-global, so
// assertions go against the delta, never the snapshot.
func statsDelta(t *testing.T, fn func()) Stats {
	t.Helper()
	prev := EnableStats(true)
	t.Cleanup(func() { EnableStats(prev) })
	before := SnapshotStats()
	fn()
	after := SnapshotStats()
	return Stats{
		ReleaseFast:    after.ReleaseFast - before.ReleaseFast,
		ReleaseNub:     after.ReleaseNub - before.ReleaseNub,
		ReleaseHandoff: after.ReleaseHandoff - before.ReleaseHandoff,
		VFast:          after.VFast - before.VFast,
		VNub:           after.VNub - before.VNub,
		VHandoff:       after.VHandoff - before.VHandoff,
		AcquirePark:    after.AcquirePark - before.AcquirePark,
		PPark:          after.PPark - before.PPark,
		SignalWoke:     after.SignalWoke - before.SignalWoke,
	}
}

func TestHandoffModeRoundTrip(t *testing.T) {
	prev := SetHandoffMode(HandoffAlways)
	defer SetHandoffMode(prev)
	if got := SetHandoffMode(HandoffOff); got != HandoffAlways {
		t.Fatalf("SetHandoffMode returned %d, want HandoffAlways", got)
	}
	if got := CurrentHandoffMode(); got != HandoffOff {
		t.Fatalf("CurrentHandoffMode = %d, want HandoffOff", got)
	}
}

// yieldHeld deschedules the caller mid-critical-section every few
// iterations. On a single-P runtime goroutines otherwise run their whole
// loop without ever overlapping, and a contention test that never contends
// proves nothing: the yield forces other threads to arrive at a held gate
// and park, so the hand-off path genuinely runs.
func yieldHeld(i int) {
	if i%64 == 0 {
		runtime.Gosched()
	}
}

// TestHandoffAlwaysMutexExclusion hammers a mutex-protected non-atomic
// counter with every release handing off: the transfer path must preserve
// mutual exclusion exactly as clear-and-wake does, and with the queue never
// empty at release time the hand-off counter must actually move.
func TestHandoffAlwaysMutexExclusion(t *testing.T) {
	withHandoffMode(t, HandoffAlways)
	const (
		goroutines = 8
		iters      = 2000
	)
	var m Mutex
	var counter int // protected by m; non-atomic on purpose
	s := statsDelta(t, func() {
		var wg sync.WaitGroup
		wg.Add(goroutines)
		for g := 0; g < goroutines; g++ {
			go func() {
				defer wg.Done()
				defer Detach()
				for i := 0; i < iters; i++ {
					m.Acquire()
					counter++
					yieldHeld(i)
					m.Release()
				}
			}()
		}
		wg.Wait()
	})
	if counter != goroutines*iters {
		t.Fatalf("counter = %d, want %d: hand-off broke mutual exclusion", counter, goroutines*iters)
	}
	if s.AcquirePark == 0 {
		t.Fatal("no parks: the workload never contended and the hand-off path never ran")
	}
	if s.ReleaseHandoff == 0 {
		t.Fatalf("%d parks but no hand-offs under HandoffAlways", s.AcquirePark)
	}
	t.Logf("releases: fast=%d nub=%d handoff=%d (parks=%d)",
		s.ReleaseFast, s.ReleaseNub, s.ReleaseHandoff, s.AcquirePark)
}

// TestHandoffAlwaysSemaphorePV is the semaphore variant: V's hand-off gifts
// the caller's token, so P/V pairs must still admit exactly one thread at a
// time to the critical section.
func TestHandoffAlwaysSemaphorePV(t *testing.T) {
	withHandoffMode(t, HandoffAlways)
	const (
		goroutines = 8
		iters      = 2000
	)
	var sem Semaphore
	var counter int // protected by sem
	s := statsDelta(t, func() {
		var wg sync.WaitGroup
		wg.Add(goroutines)
		for g := 0; g < goroutines; g++ {
			go func() {
				defer wg.Done()
				defer Detach()
				for i := 0; i < iters; i++ {
					sem.P()
					counter++
					yieldHeld(i)
					sem.V()
				}
			}()
		}
		wg.Wait()
	})
	if counter != goroutines*iters {
		t.Fatalf("counter = %d, want %d: V hand-off broke the token discipline", counter, goroutines*iters)
	}
	if s.PPark == 0 {
		t.Fatal("no parks: the workload never contended and the hand-off path never ran")
	}
	if s.VHandoff == 0 {
		t.Fatalf("%d parks but no hand-offs under HandoffAlways", s.PPark)
	}
}

// TestHandoffOffNeverHandsOff pins the opt-out: under HandoffOff the same
// contended workload must resolve every release through the paper's
// clear-and-wake protocol.
func TestHandoffOffNeverHandsOff(t *testing.T) {
	withHandoffMode(t, HandoffOff)
	var m Mutex
	var counter int
	s := statsDelta(t, func() {
		var wg sync.WaitGroup
		wg.Add(4)
		for g := 0; g < 4; g++ {
			go func() {
				defer wg.Done()
				defer Detach()
				for i := 0; i < 1000; i++ {
					m.Acquire()
					counter++
					m.Release()
				}
			}()
		}
		wg.Wait()
	})
	if s.ReleaseHandoff != 0 {
		t.Fatalf("ReleaseHandoff = %d under HandoffOff, want 0", s.ReleaseHandoff)
	}
	if counter != 4000 {
		t.Fatalf("counter = %d, want 4000", counter)
	}
}

// TestHandoffAdaptiveStarvation pins the adaptive policy's trigger: a
// waiter parked longer than the starvation threshold receives the mutex
// directly on the next release. (The converse — a fresh waiter NOT being
// handed off — depends on sub-millisecond scheduling and is exercised
// statistically by the benchmarks, not asserted here.)
func TestHandoffAdaptiveStarvation(t *testing.T) {
	withHandoffMode(t, HandoffAdaptive)
	var m Mutex
	m.Acquire()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer Detach()
		m.Acquire()
		m.Release()
	}()
	for m.Waiters() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	// The waiter is on the queue; age it past handoffStarveNs.
	time.Sleep(3 * time.Millisecond)
	s := statsDelta(t, func() {
		m.Release()
		<-done
	})
	if s.ReleaseHandoff != 1 {
		t.Fatalf("ReleaseHandoff = %d releasing to a starved waiter, want 1", s.ReleaseHandoff)
	}
}

// TestHandoffAlwaysAlertP drives the alertable hand-off path: a thread
// blocked in AlertP receives the semaphore by transfer and must return
// normally (holding), not Alerted.
func TestHandoffAlwaysAlertP(t *testing.T) {
	withHandoffMode(t, HandoffAlways)
	var sem Semaphore
	sem.P()
	got := make(chan error, 1)
	th := Fork(func() {
		err := sem.AlertP()
		got <- err
		if err == nil {
			sem.V()
		}
	})
	for sem.Waiters() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	s := statsDelta(t, func() {
		sem.V()
		if err := <-got; err != nil {
			t.Errorf("AlertP = %v after V hand-off, want nil", err)
		}
		Join(th) // quiesce before the snapshot
	})
	if s.VHandoff != 1 {
		t.Fatalf("VHandoff = %d, want 1", s.VHandoff)
	}
}

// TestHandoffAlertBeatsTransfer pins the claim race: a waiter Alert claims
// while it sits on the queue must not be chosen for a hand-off — the
// release skips it (its wakeup belongs to the alert) and, with no other
// waiter, falls back to an ordinary release.
func TestHandoffAlertBeatsTransfer(t *testing.T) {
	withHandoffMode(t, HandoffAlways)
	var sem Semaphore
	sem.P()
	got := make(chan error, 1)
	th := Fork(func() {
		got <- sem.AlertP()
	})
	for sem.Waiters() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	Alert(th)
	if err := <-got; err != Alerted {
		t.Fatalf("AlertP = %v after Alert, want Alerted", err)
	}
	s := statsDelta(t, func() { sem.V() })
	Join(th)
	if s.VHandoff != 0 {
		t.Fatalf("VHandoff = %d releasing past an alerted waiter, want 0", s.VHandoff)
	}
	if !sem.Available() {
		t.Fatal("semaphore unavailable after V with no eligible waiter")
	}
}

// TestSignalWakesUnderHeldMutex pins Signal's single outcome: with the
// signaller holding the mutex and every Release handing off, Signal still
// wakes the waiter it pops. The woken waiter parks on the held mutex, and
// the Release hands the mutex to it.
func TestSignalWakesUnderHeldMutex(t *testing.T) {
	withHandoffMode(t, HandoffAlways)
	var (
		m     Mutex
		c     Condition
		ready bool // protected by m
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer Detach()
		m.Acquire()
		for !ready {
			c.Wait(&m)
		}
		m.Release()
	}()
	waitForWaiters(t, c.Waiters, 1)
	s := statsDelta(t, func() {
		m.Acquire()
		ready = true
		c.Signal()
		waitForWaiters(t, m.Waiters, 1)
		m.Release()
		waitDone(t, done, "the woken waiter to resume after the Release")
	})
	if s.SignalWoke != 1 {
		t.Fatalf("SignalWoke = %d, want 1", s.SignalWoke)
	}
	if s.ReleaseHandoff != 1 {
		t.Fatalf("ReleaseHandoff = %d, want 1: the woken waiter did not park on the held mutex", s.ReleaseHandoff)
	}
}

// TestHandoffTracedMutexStampOrder is TestTraceStampMutexOrder under
// HandoffAlways: the two-CAS transfer draws its stamps inside certified CAS
// windows, so the collected stream sorted by stamp must still be a legal
// alternation — a pre-drawn or post-drawn stamp inverts here under load.
func TestHandoffTracedMutexStampOrder(t *testing.T) {
	withHandoffMode(t, HandoffAlways)
	const (
		goroutines = 8
		iters      = 5000
	)
	StartTracing(1 << 18)
	defer StopTracing()
	var m Mutex
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			defer Detach()
			for i := 0; i < iters; i++ {
				m.Acquire()
				yieldHeld(i)
				m.Release()
			}
		}()
	}
	wg.Wait()
	shards, dropped := CollectTrace()
	if dropped > 0 {
		t.Fatalf("rings overflowed: %d dropped", dropped)
	}
	if n := replayGateTrace(t, shards); n != goroutines*iters*2 {
		t.Fatalf("replayed %d events, want %d", n, goroutines*iters*2)
	}
}

// TestHandoffTracedSemaphoreStampOrder is the semaphore variant; concurrent
// V's contend on the release CAS, so both the demotion path (second CAS
// loses) and the V-while-available guard get exercised.
func TestHandoffTracedSemaphoreStampOrder(t *testing.T) {
	withHandoffMode(t, HandoffAlways)
	const (
		goroutines = 8
		iters      = 5000
	)
	StartTracing(1 << 18)
	defer StopTracing()
	var s Semaphore
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			defer Detach()
			for i := 0; i < iters; i++ {
				s.P()
				yieldHeld(i)
				s.V()
			}
		}()
	}
	wg.Wait()
	shards, dropped := CollectTrace()
	if dropped > 0 {
		t.Fatalf("rings overflowed: %d dropped", dropped)
	}
	if n := replayGateTrace(t, shards); n != goroutines*iters*2 {
		t.Fatalf("replayed %d events, want %d", n, goroutines*iters*2)
	}
}
