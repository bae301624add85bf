package trace

import (
	"sync/atomic"
	"testing"
	"time"

	"threads/internal/baselines"
	"threads/internal/core"
	"threads/internal/workload"
)

// Runtime conformance for direct hand-off (the fairness fix layered on the
// paper's wake-and-retry Release): under HandoffAlways every contended
// Release, V and Signal takes the transfer path, and the recorded stream —
// the releaser's event stamped at its first CAS, the recipient's at the
// second — must replay through the full specification state machine
// exactly like the unmodified protocol. A hand-off whose stamps did not
// certify against concurrent transitions surfaces here as an Acquire of a
// held mutex, a P of an unavailable semaphore, or a Resume with no
// justifying Signal.

// withHandoffAlways pins the hand-off policy for one test.
func withHandoffAlways(t *testing.T) {
	t.Helper()
	prev := core.SetHandoffMode(core.HandoffAlways)
	t.Cleanup(func() { core.SetHandoffMode(prev) })
}

func TestRuntimeConformanceHandoffMutexContention(t *testing.T) {
	withHandoffAlways(t)
	withRuntimeTracing(t, 1<<16, func() {
		ck := New()
		workload.MutexContention(baselines.NewThreadsMonitor(), workload.ContentionConfig{
			Threads: 8, Iters: 2000,
		})
		n := collectRuntime(t, ck)
		if n < 8*2000*2 {
			t.Fatalf("replayed %d events, want at least %d", n, 8*2000*2)
		}
	})
}

// TestRuntimeConformanceHandoffProducerConsumer is the Wait/Signal-heavy
// case: signallers hold the mutex, so Signals morph waiters onto the mutex
// queue and Releases hand the mutex to them directly — the morphed
// waiter's Resume is emitted with the hand-off's certified stamp, which
// the checker's thin-air rule (some Signal after this thread's Enqueue)
// validates against the Signal stamped before the morph.
func TestRuntimeConformanceHandoffProducerConsumer(t *testing.T) {
	withHandoffAlways(t)
	withRuntimeTracing(t, 1<<16, func() {
		ck := New()
		total := 0
		for episode := 0; episode < 3; episode++ {
			res := workload.ProducerConsumer(baselines.NewThreadsMonitor(), workload.PCConfig{
				Producers: 3, Consumers: 3, ItemsPerProducer: 500, Capacity: 4,
			})
			if res.Items != 1500 {
				t.Fatalf("episode %d: items = %d, want 1500", episode, res.Items)
			}
			total += collectRuntime(t, ck)
		}
		if total == 0 {
			t.Fatal("no events recorded")
		}
		t.Logf("replayed %d events over 3 episodes", total)
	})
}

// TestRuntimeConformanceHandoffAlertStorm mixes transfers with the alert
// claim races: a waiter Alert claims must be skipped by the hand-off pop,
// and an AlertP that receives a transfer must emit its Return with the
// certified stamp.
func TestRuntimeConformanceHandoffAlertStorm(t *testing.T) {
	withHandoffAlways(t)
	withRuntimeTracing(t, 1<<16, func() {
		ck := New()
		res := workload.AlertStorm(workload.AlertStormConfig{
			Victims: 4, Stormers: 2, Episodes: 50,
		})
		if res.Raised != 4*50 {
			t.Fatalf("raised = %d, want %d", res.Raised, 4*50)
		}
		if n := collectRuntime(t, ck); n == 0 {
			t.Fatal("no events recorded")
		}
	})
}

// TestRuntimeConformanceHandoffReadersWriters adds Broadcast traffic,
// which never morphs or hands off per se but interleaves with Releases
// that do.
func TestRuntimeConformanceHandoffReadersWriters(t *testing.T) {
	withHandoffAlways(t)
	withRuntimeTracing(t, 1<<16, func() {
		ck := New()
		workload.ReadersWriters(baselines.NewThreadsMonitor(), workload.RWConfig{
			Readers: 4, Writers: 2, OpsPerThread: 300,
		})
		if n := collectRuntime(t, ck); n == 0 {
			t.Fatal("no events recorded")
		}
	})
}

// TestRuntimeConformanceHandoffSilentReacquire covers a traced hand-off
// demoted under a reacquisition that traces nothing itself: AlertWait's
// Raise path reacquires its mutex silently (the Raise is stamped in the
// alerts domain), yet the releaser traces, so a barging CAS between its
// two CASes demotes the transfer. The recipient must then retry its
// test-and-set; taking the demoted transfer for an untraced one would
// return it holding a mutex another thread holds, which the replay reports
// as a Raise violating Resume's WHEN m = NIL. Two threads loop Acquire →
// AlertWait → Release, an alerter ends each wait about every 20 µs, and
// three threads contend on the same mutex.
func TestRuntimeConformanceHandoffSilentReacquire(t *testing.T) {
	const (
		episodes   = 20
		nWaiters   = 2
		waits      = 200
		nContender = 3
		pairs      = 3000
	)
	withHandoffAlways(t)
	withRuntimeTracing(t, 1<<16, func() {
		ck := New()
		for ep := 0; ep < episodes; ep++ {
			var (
				mu   core.Mutex
				cond core.Condition

				remaining atomic.Int32
			)
			remaining.Store(nWaiters)
			waiters := make([]*core.Thread, nWaiters)
			for i := range waiters {
				waiters[i] = core.ForkNamed("silent-waiter", func() {
					for w := 0; w < waits; w++ {
						mu.Acquire()
						_ = cond.AlertWait(&mu) // only the alerter ends it; Alerted is the point
						mu.Release()
					}
					remaining.Add(-1)
					core.TestAlert()
				})
			}
			contenders := make([]*core.Thread, nContender)
			for i := range contenders {
				contenders[i] = core.ForkNamed("silent-contender", func() {
					for p := 0; p < pairs; p++ {
						mu.Acquire()
						mu.Release()
					}
				})
			}
			alerter := core.ForkNamed("silent-alerter", func() {
				for remaining.Load() > 0 {
					for _, w := range waiters {
						core.Alert(w)
					}
					spinFor(20 * time.Microsecond)
				}
			})
			for _, th := range append(append(waiters, contenders...), alerter) {
				core.Join(th)
			}
			collectRuntime(t, ck)
		}
	})
}
