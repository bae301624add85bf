package trace

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"threads/internal/core"
)

// TestRuntimeConformanceDeadlines replays traced deadline waits. Eight
// threads cycle through AlertWaitDeadline, AlertPDeadline and
// AcquireDeadline on one mutex, condition and semaphore with deadlines of
// 20–200 µs, while a helper Signals and V's after each 50 µs sleep (which
// the runtime may round up), so each thread re-arms its timer at once after
// waits its deadline ended and after waits the helper satisfied just as the
// deadline expired. The replay must
// be clean, no DeadlineExceeded may return before its deadline, the timers
// must both fire and be cancelled, and every thread must finish within the
// watchdog: a lost deadline fails here, not at the test binary's timeout.
func TestRuntimeConformanceDeadlines(t *testing.T) {
	const (
		nThreads = 8
		waits    = 100
	)
	defer core.EnableStats(core.EnableStats(true))
	withRuntimeTracing(t, 1<<16, func() {
		core.ResetStats()
		var (
			mu   core.Mutex
			cond core.Condition
			sem  core.Semaphore

			early, exceeded atomic.Int64
			running         atomic.Int32
			firstErr        atomic.Value
		)
		sem.P() // the helper's V's are the only tokens
		running.Store(nThreads)
		workers := make([]*core.Thread, nThreads)
		for i := range workers {
			rng := rand.New(rand.NewSource(int64(i) + 1))
			workers[i] = core.ForkNamed("deadline-worker", func() {
				defer running.Add(-1)
				for w := 0; w < waits; w++ {
					deadline := time.Now().Add(time.Duration(20+rng.Intn(181)) * time.Microsecond)
					var err error
					switch w % 3 {
					case 0:
						mu.Acquire()
						err = cond.AlertWaitDeadline(&mu, deadline)
						mu.Release()
					case 1:
						err = sem.AlertPDeadline(deadline)
					case 2:
						if err = mu.AcquireDeadline(deadline); err == nil {
							spinFor(30 * time.Microsecond) // hold long enough for others to time out
							mu.Release()
						}
					}
					switch {
					case errors.Is(err, core.DeadlineExceeded):
						exceeded.Add(1)
						if time.Now().Before(deadline) {
							early.Add(1)
						}
					case err != nil:
						firstErr.CompareAndSwap(nil, fmt.Errorf("wait %d returned %v", w, err))
					}
				}
			})
		}
		helper := core.ForkNamed("deadline-helper", func() {
			for running.Load() > 0 {
				time.Sleep(50 * time.Microsecond)
				mu.Acquire()
				cond.Signal()
				mu.Release()
				sem.V()
			}
		})
		joined := make(chan struct{})
		go func() {
			for _, w := range workers {
				core.Join(w)
			}
			core.Join(helper)
			close(joined)
		}()
		select {
		case <-joined:
		case <-time.After(30 * time.Second):
			t.Fatalf("deadline workers did not finish (%d still running): a deadline was lost; stats %+v",
				running.Load(), core.SnapshotStats())
		}
		if err, _ := firstErr.Load().(error); err != nil {
			t.Fatal(err)
		}
		n := collectRuntime(t, New())
		st := core.SnapshotStats()
		if early.Load() != 0 {
			t.Errorf("%d of %d DeadlineExceeded returns came before their deadline", early.Load(), exceeded.Load())
		}
		if st.TimerFire == 0 || st.TimerCancel == 0 {
			t.Errorf("timers fired %d and were cancelled %d times; the test needs both", st.TimerFire, st.TimerCancel)
		}
		t.Logf("replayed %d events: %d armed, %d fired, %d cancelled, %d drained, %d DeadlineExceeded",
			n, st.TimerArm, st.TimerFire, st.TimerCancel, st.TimerDrain, exceeded.Load())
	})
}

// spinFor busy-waits for d, yielding between clock reads. time.Sleep would
// round a few microseconds up to the runtime's timer granularity.
func spinFor(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		runtime.Gosched()
	}
}
