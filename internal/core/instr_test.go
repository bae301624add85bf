package core

import (
	"runtime"
	"sync"
	"testing"
)

// withInstr runs body with the instrumentation word set to w, then
// restores the word. The PI bit is sticky in production; clearing it is
// safe here because no PI mutex is in use between tests.
func withInstr(w uint32, body func()) {
	saved := instr.Swap(w)
	defer instr.Store(saved)
	body()
}

// TestInstrumentationWordSetters pins the word's contract: each setter
// flips only its own bit and reports the previous setting, also while the
// other three bits are toggled concurrently (run it under -race), and
// SetPriorityInheritance(false) leaves the sticky PI bit set.
func TestInstrumentationWordSetters(t *testing.T) {
	var m Mutex // the PI setter's mutex; never acquired
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
		{"priority-inheritance", instrPI, m.SetPriorityInheritance},
	}
	// want is the bit a setter leaves behind: its own setting, except
	// that nothing clears the PI bit.
	want := func(bit uint32, on bool) bool { return on || bit == instrPI }
	// setting is what a setter reports: its bit, or the mutex's own PI flag.
	setting := func(bit uint32) bool {
		if bit == instrPI {
			return m.g.pi.Load()
		}
		return instr.Load()&bit != 0
	}

	withInstr(0, func() {
		for _, s := range setters {
			for _, on := range []bool{true, false, false, true, false} {
				before, prev := instr.Load(), setting(s.bit)
				if got := s.set(on); got != prev {
					t.Fatalf("%s(%v) returned %v, want the previous setting %v", s.name, on, got, prev)
				}
				after := instr.Load()
				if after&^s.bit != before&^s.bit {
					t.Fatalf("%s(%v) changed other bits: %04b -> %04b", s.name, on, before, after)
				}
				if (after&s.bit != 0) != want(s.bit, on) {
					t.Fatalf("%s(%v) left its bit %v", s.name, on, after&s.bit != 0)
				}
			}
		}
	})

	withInstr(0, func() {
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
					if (instr.Load()&s.bit != 0) != want(s.bit, on) {
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
		if w := instr.Load(); w != instrPI {
			t.Errorf("word after the concurrent toggles = %04b, want only the PI bit", w)
		}
	})
}

// TestFastPathsUnderContention drives the uninstrumented user code —
// lockFast and unlockFast with the caller's queue re-check — against the
// Nub from several threads at once, whatever bits earlier tests left set:
// every critical section stays exclusive and no waiter is stranded.
func TestFastPathsUnderContention(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	withInstr(0, func() {
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
	})
}
