package core

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestMain fails the package when its tests leave the instrumentation word
// set: every later test would then run the slow paths only, and lockFast
// and unlockFast would go untested without a word of warning.
func TestMain(m *testing.M) {
	code := m.Run()
	if w := instr.Load(); w != 0 {
		fmt.Fprintf(os.Stderr, "instrumentation word left at %03b after the tests; a test did not restore its setting\n", w)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// TestInstrumentationWordSetters pins the word's contract: each setter
// flips only its own bit and reports the previous setting, also while the
// other two bits are toggled concurrently (run it under -race).
func TestInstrumentationWordSetters(t *testing.T) {
	setters := []struct {
		name string
		bit  uint32
		set  func(on bool) (prev bool)
	}{
		{"checking", instrCheck, SetChecking},
		{"stats", instrStats, EnableStats},
		{"tracing", instrTrace, func(on bool) bool {
			prev := tracing() // Start/StopTracing return nothing
			if on {
				StartTracing(1)
			} else {
				StopTracing()
			}
			return prev
		}},
	}

	for _, s := range setters {
		for _, on := range []bool{true, false, false, true, false} {
			before := instr.Load()
			if got := s.set(on); got != (before&s.bit != 0) {
				t.Fatalf("%s(%v) returned %v, want the previous setting %v", s.name, on, got, before&s.bit != 0)
			}
			after := instr.Load()
			if after&^s.bit != before&^s.bit {
				t.Fatalf("%s(%v) changed other bits: %03b -> %03b", s.name, on, before, after)
			}
			if (after&s.bit != 0) != on {
				t.Fatalf("%s(%v) left its bit %v", s.name, on, after&s.bit != 0)
			}
		}
	}

	const rounds = 500
	var wg sync.WaitGroup
	errs := make(chan string, len(setters))
	for _, s := range setters {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := false // each goroutine owns its setting
			for i := 0; i < rounds; i++ {
				on := i%2 == 0
				if prev := s.set(on); prev != last {
					errs <- s.name + ": setter reported a setting it did not leave"
					return
				}
				if (instr.Load()&s.bit != 0) != on {
					errs <- s.name + ": another setter clobbered this bit"
					return
				}
				last = on
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if w := instr.Load(); w != 0 {
		t.Errorf("word after the concurrent toggles = %03b, want 0 (every setter ended off)", w)
	}
}

// TestFastPathsUnderContention drives the uninstrumented user code —
// lockFast and unlockFast with the caller's queue re-check — against the
// Nub from several threads at once: every critical section stays
// exclusive and no waiter is stranded.
func TestFastPathsUnderContention(t *testing.T) {
	if w := instr.Load(); w != 0 {
		t.Fatalf("instrumentation word = %03b, want 0: the fast paths would not run", w)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const (
		workers = 8
		rounds  = 2000
	)
	var (
		m              Mutex
		s              Semaphore
		inM, inS       int32
		mCount, sCount int
		wg             sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		Fork(func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if (i+w)%3 != 0 || !m.TryAcquire() {
					m.Acquire()
				}
				if atomicAdd(&inM, 1) != 1 {
					t.Error("two threads inside the mutex")
				}
				mCount++
				atomicAdd(&inM, -1)
				m.Release()

				if i%2 != 0 || !s.TryP() {
					s.P()
				}
				if atomicAdd(&inS, 1) != 1 {
					t.Error("two threads past the semaphore")
				}
				sCount++
				atomicAdd(&inS, -1)
				s.V()
			}
		})
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitDone(t, done, "fast-path contention workers")
	if mCount != workers*rounds || sCount != workers*rounds {
		t.Fatalf("critical sections: mutex %d, semaphore %d, want %d each", mCount, sCount, workers*rounds)
	}
	if m.Held() || m.Waiters() != 0 || !s.Available() || s.Waiters() != 0 {
		t.Fatalf("after the run: mutex held=%v waiters=%d, semaphore available=%v waiters=%d",
			m.Held(), m.Waiters(), s.Available(), s.Waiters())
	}
}

// TestPIMutexLeavesOthersFast: priority inheritance is a bit of its own
// mutex's word, so a PI mutex costs no other Mutex or Semaphore anything:
// their user code still succeeds beside it, while the PI mutex's refuses.
func TestPIMutexLeavesOthersFast(t *testing.T) {
	var pi, m Mutex
	var s Semaphore
	pi.SetPriorityInheritance(true)
	defer pi.SetPriorityInheritance(false)
	if !m.g.lockFast() || !m.g.unlockFast() {
		t.Fatal("a plain mutex's lockFast/unlockFast failed beside a PI mutex")
	}
	if !s.g.lockFast() || !s.g.unlockFast() {
		t.Fatal("a semaphore's lockFast/unlockFast failed beside a PI mutex")
	}
	if pi.g.lockFast() {
		t.Fatal("lockFast took a free PI mutex")
	}
	pi.Acquire()
	if pi.g.unlockFast() {
		t.Fatal("unlockFast released a PI mutex")
	}
	pi.Release()
}

// TestPIBitSurvivesTransitions: every transition of a PI mutex's word
// carries the PI bit through, traced and untraced, so the mutex stays PI
// until SetPriorityInheritance(false) clears the bit.
func TestPIBitSurvivesTransitions(t *testing.T) {
	var m Mutex
	if m.SetPriorityInheritance(true) {
		t.Fatal("a fresh mutex reported priority inheritance on")
	}
	check := func(step string, held bool) {
		t.Helper()
		w := m.g.word.Load()
		if w&gatePIBit == 0 || (w&gateLockedBit != 0) != held {
			t.Fatalf("%s: word %#x, want the PI bit set and held=%v", step, w, held)
		}
	}
	traced := func(body func()) {
		StartTracing(1 << 12)
		defer func() { StopTracing(); CollectTrace() }()
		body()
	}

	traced(func() {
		m.Acquire()
		check("traced Acquire", true)
		m.Release()
		check("traced Release", false)
	})

	// Traced Wait releases m with its Enqueue stamp (releaseEmbed).
	traced(func() {
		var c Condition
		th := Fork(func() {
			m.Acquire()
			c.Wait(&m)
			m.Release()
		})
		waitForWaiters(t, c.Waiters, 1)
		check("traced Wait", false)
		m.Acquire()
		c.Signal()
		m.Release()
		Join(th)
		check("traced Resume and Release", false)
	})

	// A hand-off passes m from the releaser to the queued thread without
	// clearing the lock bit (untraced) or with two stamped CASes (traced).
	handoff := func(name string) {
		defer SetHandoffMode(SetHandoffMode(HandoffAlways))
		defer EnableStats(EnableStats(true))
		before := SnapshotStats().ReleaseHandoff
		m.Acquire()
		inside := make(chan uint64, 1)
		th := Fork(func() {
			m.Acquire()
			inside <- m.g.word.Load()
			m.Release()
		})
		waitForWaiters(t, m.Waiters, 1)
		m.Release()
		Join(th)
		if n := SnapshotStats().ReleaseHandoff - before; n != 1 {
			t.Fatalf("%s: %d hand-offs, want 1", name, n)
		}
		if w := <-inside; w&gatePIBit == 0 || w&gateLockedBit == 0 {
			t.Fatalf("%s: the recipient saw word %#x, want the PI bit set and held", name, w)
		}
		check(name+" and the recipient's Release", false)
	}
	handoff("untraced hand-off")
	traced(func() { handoff("traced hand-off") })

	// AcquireDeadline blocks with AlertP's discipline, and its woken
	// thread reclaims the free PI word by the untraced fallback CAS.
	m.Acquire()
	inside := make(chan uint64, 1)
	th := Fork(func() {
		if err := m.AcquireDeadline(time.Now().Add(time.Hour)); err != nil {
			t.Errorf("AcquireDeadline: %v", err)
			return
		}
		inside <- m.g.word.Load()
		m.Release()
	})
	waitForWaiters(t, m.Waiters, 1)
	m.Release()
	Join(th)
	if w := <-inside; w&gatePIBit == 0 || w&gateLockedBit == 0 {
		t.Fatalf("AcquireDeadline: the acquirer saw word %#x, want the PI bit set and held", w)
	}
	check("AcquireDeadline and Release", false)

	// A traced period leaves a stale stamp; the untraced reacquire drops
	// the stamp and keeps the bit.
	traced(func() { m.Acquire(); m.Release() })
	if m.g.word.Load()>>gateStampShift == 0 {
		t.Fatal("a traced Release left no stamp in the word")
	}
	m.Acquire()
	if w := m.g.word.Load(); w != gatePIBit|gateLockedBit {
		t.Fatalf("untraced reacquire of a stale-stamped word: %#x, want %#x", w, gatePIBit|gateLockedBit)
	}
	m.Release()
	check("untraced Release", false)

	if !m.SetPriorityInheritance(false) {
		t.Fatal("SetPriorityInheritance(false) did not report the previous setting")
	}
	if w := m.g.word.Load(); w != 0 {
		t.Fatalf("SetPriorityInheritance(false) left word %#x, want 0", w)
	}
	if !m.g.lockFast() || !m.g.unlockFast() {
		t.Fatal("lockFast/unlockFast failed on the mutex after PI was turned off")
	}
}
