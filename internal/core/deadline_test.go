package core

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestDeadlineExceededMatchesContext(t *testing.T) {
	if !errors.Is(DeadlineExceeded, context.DeadlineExceeded) {
		t.Fatal("DeadlineExceeded does not match context.DeadlineExceeded under errors.Is")
	}
	if errors.Is(DeadlineExceeded, Alerted) {
		t.Fatal("DeadlineExceeded must not match Alerted")
	}
}

func TestAlertWaitDeadlineTimesOut(t *testing.T) {
	var (
		m Mutex
		c Condition
	)
	errCh := make(chan error, 1)
	Fork(func() {
		m.Acquire()
		err := c.AlertWaitDeadline(&m, time.Now().Add(30*time.Millisecond))
		if !m.Held() {
			t.Error("mutex not held after AlertWaitDeadline (m' = SELF violated)")
		}
		m.Release()
		// The deadline's alert must not survive the return.
		if TestAlert() {
			t.Error("stale alert pending after DeadlineExceeded return")
		}
		errCh <- err
	})
	select {
	case err := <-errCh:
		if !errors.Is(err, DeadlineExceeded) {
			t.Fatalf("AlertWaitDeadline returned %v, want DeadlineExceeded", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("AlertWaitDeadline never timed out")
	}
}

func TestAlertWaitDeadlineSatisfied(t *testing.T) {
	var (
		m Mutex
		c Condition
	)
	errCh := make(chan error, 1)
	Fork(func() {
		m.Acquire()
		err := c.AlertWaitDeadline(&m, time.Now().Add(10*time.Second))
		m.Release()
		errCh <- err
	})
	deadline := time.Now().Add(5 * time.Second)
	for c.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("thread never blocked")
		}
		time.Sleep(time.Millisecond)
	}
	c.Signal()
	if err := <-errCh; err != nil {
		t.Fatalf("satisfied AlertWaitDeadline returned %v, want nil", err)
	}
}

func TestAlertWaitDeadlineUserAlert(t *testing.T) {
	var (
		m Mutex
		c Condition
	)
	errCh := make(chan error, 1)
	th := Fork(func() {
		m.Acquire()
		err := c.AlertWaitDeadline(&m, time.Now().Add(10*time.Second))
		m.Release()
		errCh <- err
	})
	deadline := time.Now().Add(5 * time.Second)
	for c.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("thread never blocked")
		}
		time.Sleep(time.Millisecond)
	}
	Alert(th)
	if err := <-errCh; !errors.Is(err, Alerted) {
		t.Fatalf("alerted AlertWaitDeadline returned %v, want Alerted", err)
	}
}

func TestAlertWaitDeadlineExpiredOnEntry(t *testing.T) {
	var (
		m Mutex
		c Condition
	)
	done := make(chan struct{})
	Fork(func() {
		defer close(done)
		m.Acquire()
		defer m.Release()
		err := c.AlertWaitDeadline(&m, time.Now().Add(-time.Second))
		if !errors.Is(err, DeadlineExceeded) {
			t.Errorf("expired-on-entry returned %v, want DeadlineExceeded", err)
		}
		if !m.Held() {
			t.Error("mutex released by expired-on-entry AlertWaitDeadline")
		}
		if TestAlert() {
			t.Error("expired-on-entry left an alert pending")
		}
	})
	waitDone(t, done, "expired-on-entry waiter")
}

func TestAlertPDeadline(t *testing.T) {
	var s Semaphore
	s.P() // unavailable: the deadline path must block and time out
	errCh := make(chan error, 1)
	Fork(func() {
		err := s.AlertPDeadline(time.Now().Add(30 * time.Millisecond))
		if TestAlert() {
			t.Error("stale alert pending after AlertPDeadline")
		}
		errCh <- err
	})
	if err := <-errCh; !errors.Is(err, DeadlineExceeded) {
		t.Fatalf("AlertPDeadline on unavailable semaphore returned %v, want DeadlineExceeded", err)
	}
	// UNCHANGED [s] on the deadline path.
	if s.Available() {
		t.Fatal("deadline path changed the semaphore")
	}
	s.V()

	// Available: acquires immediately.
	done := make(chan struct{})
	Fork(func() {
		defer close(done)
		if err := s.AlertPDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Errorf("AlertPDeadline on available semaphore returned %v", err)
		}
		if s.Available() {
			t.Error("semaphore still available after AlertPDeadline acquired")
		}
		s.V()
	})
	waitDone(t, done, "available-path AlertPDeadline")

	// Expired on entry degenerates to TryP.
	done2 := make(chan struct{})
	Fork(func() {
		defer close(done2)
		if err := s.AlertPDeadline(time.Now().Add(-time.Second)); err != nil {
			t.Errorf("expired AlertPDeadline on available semaphore returned %v", err)
		}
		if err := s.AlertPDeadline(time.Now().Add(-time.Second)); !errors.Is(err, DeadlineExceeded) {
			t.Errorf("expired AlertPDeadline on unavailable semaphore returned %v", err)
		}
		s.V()
	})
	waitDone(t, done2, "expired-path AlertPDeadline")
}

func TestAcquireDeadline(t *testing.T) {
	var m Mutex
	m.Acquire() // held: the deadline path must block and time out
	errCh := make(chan error, 1)
	Fork(func() {
		err := m.AcquireDeadline(time.Now().Add(30 * time.Millisecond))
		if TestAlert() {
			t.Error("stale alert pending after AcquireDeadline")
		}
		errCh <- err
	})
	if err := <-errCh; !errors.Is(err, DeadlineExceeded) {
		t.Fatalf("AcquireDeadline on held mutex returned %v, want DeadlineExceeded", err)
	}
	if !m.Held() {
		t.Fatal("deadline path changed the mutex")
	}
	m.Release()

	done := make(chan struct{})
	Fork(func() {
		defer close(done)
		if err := m.AcquireDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Errorf("AcquireDeadline on free mutex returned %v", err)
		}
		m.Release()
		if err := m.AcquireDeadline(time.Now().Add(-time.Second)); err != nil {
			t.Errorf("expired AcquireDeadline on free mutex returned %v", err)
		}
		m.Release()
	})
	waitDone(t, done, "AcquireDeadline success paths")
}

func TestAcquireDeadlineUserAlert(t *testing.T) {
	var m Mutex
	m.Acquire()
	errCh := make(chan error, 1)
	th := Fork(func() {
		errCh <- m.AcquireDeadline(time.Now().Add(10 * time.Second))
	})
	deadline := time.Now().Add(5 * time.Second)
	for m.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("thread never blocked in AcquireDeadline")
		}
		time.Sleep(time.Millisecond)
	}
	Alert(th)
	if err := <-errCh; !errors.Is(err, Alerted) {
		t.Fatalf("alerted AcquireDeadline returned %v, want Alerted", err)
	}
	Join(th)
	m.Release()
}

// TestDeadlineFiresAfterSatisfiedWait is the deterministic regression test
// for the stale-alert race the deadline API fixes by construction: the wait
// is satisfied by a Signal, and then — deterministically, via the
// testDeadlineRaceWindow hook — the deadline fires BEFORE the epilogue
// cancels its timer. The old time.AfterFunc + Alert + timer.Stop pattern
// loses exactly this race and leaks the alert into the thread's next
// alertable wait (demonstrated in examples/timeout's regression test); the
// deadline variant must drain it, so the subsequent AlertWait returns
// normally.
func TestDeadlineFiresAfterSatisfiedWait(t *testing.T) {
	defer func() { testDeadlineRaceWindow = nil }()
	var (
		m Mutex
		c Condition
	)
	hookArmed := make(chan struct{}, 1)
	testDeadlineRaceWindow = func() {
		select {
		case <-hookArmed:
			// Lose the race on purpose: hold the epilogue open until the
			// deadline has actually fired and its Alert is pending.
			deadline := time.Now().Add(10 * time.Second)
			for !AlertPending(Self()) {
				if time.Now().After(deadline) {
					t.Error("deadline never fired inside the race window")
					return
				}
				time.Sleep(time.Millisecond)
			}
		default:
			// Not the instrumented call (second wait's epilogue): no-op.
		}
	}

	errs := make(chan error, 2)
	Fork(func() {
		m.Acquire()
		hookArmed <- struct{}{}
		// First wait: satisfied by Signal well before its deadline, but the
		// hook forces the deadline to fire before the cancel runs.
		errs <- c.AlertWaitDeadline(&m, time.Now().Add(250*time.Millisecond))
		// Second wait: alertable, with no deadline. If the first wait's
		// timer alert leaked, this returns Alerted — the poisoning.
		errs <- c.AlertWait(&m)
		m.Release()
	})
	deadline := time.Now().Add(5 * time.Second)
	for c.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first wait never blocked")
		}
		time.Sleep(time.Millisecond)
	}
	c.Signal() // satisfy the first wait before its deadline
	if err := <-errs; err != nil {
		t.Fatalf("satisfied first wait returned %v, want nil (stale deadline alert must be drained)", err)
	}
	for c.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second wait never blocked — stale alert poisoned it?")
		}
		time.Sleep(time.Millisecond)
	}
	c.Signal()
	if err := <-errs; err != nil {
		t.Fatalf("second wait returned %v, want nil: the stale deadline alert leaked", err)
	}
}

// TestDeadlineEntryReuse drives many deadline episodes (mixed outcomes)
// through one thread's timer.
func TestDeadlineEntryReuse(t *testing.T) {
	var (
		m Mutex
		c Condition
	)
	done := make(chan struct{})
	ready := make(chan struct{}, 1)
	Fork(func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			m.Acquire()
			if i%2 == 0 {
				// Time out.
				err := c.AlertWaitDeadline(&m, time.Now().Add(2*time.Millisecond))
				if !errors.Is(err, DeadlineExceeded) {
					t.Errorf("round %d: got %v, want DeadlineExceeded", i, err)
				}
			} else {
				// Satisfied.
				ready <- struct{}{}
				err := c.AlertWaitDeadline(&m, time.Now().Add(10*time.Second))
				if err != nil {
					t.Errorf("round %d: got %v, want nil", i, err)
				}
			}
			m.Release()
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for i := 1; i < 50; i += 2 {
		<-ready
		for c.Waiters() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("waiter never blocked")
			}
			time.Sleep(time.Millisecond)
		}
		c.Signal()
	}
	waitDone(t, done, "deadline reuse loop")
}

// TestManyDeadlinesFire arms many concurrent deadlines, one runtime timer
// per thread, and checks that every one of them fires.
func TestManyDeadlinesFire(t *testing.T) {
	var s Semaphore
	s.P() // never available: every wait must end by deadline
	const n = 32
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		d := time.Duration(5+i*3) * time.Millisecond
		Fork(func() {
			errs <- s.AlertPDeadline(time.Now().Add(d))
		})
	}
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, DeadlineExceeded) {
				t.Fatalf("waiter %d returned %v, want DeadlineExceeded", i, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("waiter %d never timed out", i)
		}
	}
	s.V()
}

func TestAcquireDeadlineCheckingMode(t *testing.T) {
	prev := SetChecking(true)
	defer SetChecking(prev)
	var m Mutex
	done := make(chan struct{})
	Fork(func() {
		defer close(done)
		if err := m.AcquireDeadline(time.Now().Add(time.Second)); err != nil {
			t.Errorf("AcquireDeadline returned %v", err)
			return
		}
		// Holder tracking must see us, so Release's REQUIRES check passes.
		m.Release()
	})
	waitDone(t, done, "checking-mode AcquireDeadline")
}

// TestDeadlinePanicStopsTimer checks that a panic through a deadline wait
// stops its timer. In checked mode, AlertWaitDeadline on a mutex the caller
// does not hold panics in its REQUIRES check after the timer is armed and
// before it joins c, so the second wait reuses c. The epilogue runs from a
// defer, so the orphaned deadline can neither alert the thread after it has
// moved on nor disturb its next deadline, whether that wait starts after
// the orphan's deadline has passed or before.
func TestDeadlinePanicStopsTimer(t *testing.T) {
	defer SetChecking(SetChecking(true))
	for _, pause := range []time.Duration{50 * time.Millisecond, 0} {
		var (
			m Mutex
			c Condition
		)
		done := make(chan struct{})
		Fork(func() {
			defer close(done)
			func() {
				defer func() {
					if recover() == nil {
						t.Error("AlertWaitDeadline on an unheld mutex did not panic in checked mode")
					}
				}()
				_ = c.AlertWaitDeadline(&m, time.Now().Add(20*time.Millisecond))
			}()
			time.Sleep(pause)
			m.Acquire()
			err := c.AlertWaitDeadline(&m, time.Now().Add(20*time.Millisecond))
			m.Release()
			if !errors.Is(err, DeadlineExceeded) {
				t.Errorf("pause %v: the wait after a panicked deadline wait returned %v, want DeadlineExceeded", pause, err)
			}
		})
		waitDone(t, done, "deadline wait after a panicked one")
	}
}

// TestTracedDeadlineFireDetaches checks that traced deadline fires leave no
// adopted registry entry behind. The runtime runs each fire on a fresh
// goroutine, which Alert adopts to stamp its event; the fire Detaches it
// before handing the owner its token.
func TestTracedDeadlineFireDetaches(t *testing.T) {
	StartTracing(1 << 12)
	defer StopTracing()
	var s Semaphore
	s.P() // never available: every wait ends by its deadline (traced, P adopts this goroutine)
	base := registrySize()
	th := Fork(func() {
		for i := 0; i < 20; i++ {
			if err := s.AlertPDeadline(time.Now().Add(time.Millisecond)); !errors.Is(err, DeadlineExceeded) {
				t.Errorf("wait %d returned %v, want DeadlineExceeded", i, err)
			}
		}
	})
	Join(th)
	// A fire on a reused g may also free a stale entry: the registry can
	// shrink, but must not grow.
	if got := registrySize(); got > base {
		t.Fatalf("registry grew from %d to %d entries over 20 traced deadline fires", base, got)
	}
}
