package threads_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"threads"
)

func TestWithContextCancel(t *testing.T) {
	var (
		m threads.Mutex
		c threads.Condition
	)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	threads.Fork(func() {
		m.Acquire()
		defer m.Release()
		errCh <- threads.WithContext(ctx, func() error {
			return c.AlertWait(&m)
		})
	})
	deadline := time.Now().Add(5 * time.Second)
	for c.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("thread never blocked")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("WithContext after cancel returned %v, want context.Canceled", err)
	}
}

func TestWithContextDeadline(t *testing.T) {
	var (
		m threads.Mutex
		c threads.Condition
	)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	errCh := make(chan error, 1)
	threads.Fork(func() {
		m.Acquire()
		defer m.Release()
		errCh <- threads.WithContext(ctx, func() error {
			return c.AlertWait(&m)
		})
	})
	if err := <-errCh; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WithContext after timeout returned %v, want context.DeadlineExceeded", err)
	}
}

func TestWithContextAlreadyDone(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := threads.WithContext(ctx, func() error {
		ran = true
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("WithContext on done context returned %v", err)
	}
	if ran {
		t.Fatal("body ran despite done context")
	}
}

func TestWithContextNormalCompletion(t *testing.T) {
	var (
		m threads.Mutex
		c threads.Condition
	)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 2)
	th := threads.Fork(func() {
		m.Acquire()
		errCh <- threads.WithContext(ctx, func() error {
			return c.AlertWait(&m)
		})
		// The context fires after completion; a stale alert leaking out of
		// WithContext would poison this second wait.
		errCh <- c.AlertWait(&m)
		m.Release()
	})
	deadline := time.Now().Add(5 * time.Second)
	for c.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first wait never blocked")
		}
		time.Sleep(time.Millisecond)
	}
	c.Signal()
	if err := <-errCh; err != nil {
		t.Fatalf("satisfied WithContext returned %v, want nil", err)
	}
	cancel() // fires after the first wait completed; must have been stopped
	for c.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second wait never blocked")
		}
		time.Sleep(time.Millisecond)
	}
	c.Signal()
	if err := <-errCh; err != nil {
		t.Fatalf("second wait returned %v, want nil: context alert leaked past stop", err)
	}
	threads.Join(th)
}

// TestAlertOnDoneStopDrains loses the completion/cancel race on purpose:
// the context is cancelled after the wait completed but before stop runs,
// so the alert has been delivered and stop must drain it.
func TestAlertOnDoneStopDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	threads.Fork(func() {
		defer close(done)
		self := threads.Self()
		stop := threads.AlertOnDone(ctx, self)
		cancel() // fire while "completed": delivery lands as a pending alert
		for !threads.AlertPending(self) {
			time.Sleep(time.Millisecond)
		}
		if fired := stop(); !fired {
			t.Error("stop reported not-fired after the context alert was delivered")
		}
		if threads.AlertPending(self) {
			t.Error("stop did not drain the delivered context alert")
		}
		if fired := stop(); fired {
			t.Error("second stop call reported fired")
		}
	})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("AlertOnDone stop never returned")
	}
}

func TestWithContextUserAlertPassesThrough(t *testing.T) {
	var (
		m threads.Mutex
		c threads.Condition
	)
	ctx := context.Background()
	errCh := make(chan error, 1)
	th := threads.Fork(func() {
		m.Acquire()
		defer m.Release()
		errCh <- threads.WithContext(ctx, func() error {
			return c.AlertWait(&m)
		})
	})
	deadline := time.Now().Add(5 * time.Second)
	for c.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("thread never blocked")
		}
		time.Sleep(time.Millisecond)
	}
	threads.Alert(th)
	if err := <-errCh; !errors.Is(err, threads.Alerted) {
		t.Fatalf("user-alerted WithContext returned %v, want Alerted", err)
	}
}

// TestWithContextPanicStops checks that a panic in WithContext's body
// still stops the arrangement: cancelling the context afterwards must not
// alert the thread, so its next alertable wait ends by its own deadline.
func TestWithContextPanicStops(t *testing.T) {
	var (
		m threads.Mutex
		c threads.Condition
	)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	threads.Fork(func() {
		func() {
			defer func() { _ = recover() }()
			_ = threads.WithContext(ctx, func() error { panic("body failed") })
		}()
		cancel()
		m.Acquire()
		defer m.Release()
		errCh <- c.AlertWaitDeadline(&m, time.Now().Add(50*time.Millisecond))
	})
	select {
	case err := <-errCh:
		if !errors.Is(err, threads.DeadlineExceeded) {
			t.Fatalf("wait after a panicked WithContext returned %v, want DeadlineExceeded: the context alert outlived its body", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("wait after a panicked WithContext never returned")
	}
}
