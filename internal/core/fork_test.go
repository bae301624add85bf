package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// forkRounds is how many Forks each round-based test below makes per
// GOMAXPROCS setting.
const forkRounds = 10000

// atProcs runs f as a subtest at GOMAXPROCS 1 and 2.
func atProcs(t *testing.T, f func(t *testing.T)) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

// TestAlertRightAfterFork: Fork returns a handle on which Alert is valid at
// once, whether or not the new thread has run. An Alert issued as soon as
// Fork returns (at GOMAXPROCS 1, before the child has run at all) is raised
// by the child's first AlertWait and reported by its first TestAlert.
func TestAlertRightAfterFork(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		for i := 0; i < forkRounds; i++ {
			var (
				m   Mutex
				c   Condition
				err error
			)
			th := Fork(func() {
				m.Acquire()
				err = c.AlertWait(&m)
				m.Release()
			})
			Alert(th)
			Join(th)
			if !errors.Is(err, Alerted) {
				t.Fatalf("round %d: first AlertWait = %v, want Alerted", i, err)
			}
		}
		for i := 0; i < forkRounds; i++ {
			var (
				got     bool
				alerted = make(chan struct{})
			)
			th := Fork(func() {
				<-alerted // at GOMAXPROCS 2 the child may run first
				got = TestAlert()
			})
			Alert(th)
			close(alerted)
			Join(th)
			if !got {
				t.Fatalf("round %d: first TestAlert = false after an Alert issued as Fork returned", i)
			}
		}
	})
}

// TestJoinRightAfterFork: Join straight after Fork returns once the
// function has run exactly once, and by then the thread's registry entry is
// gone. The registry may end smaller than it began, never larger: a child
// on the g of an adopted goroutine that exited without Detach overwrites
// that stale entry and then removes it.
func TestJoinRightAfterFork(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		base := registrySize()
		for i := 0; i < forkRounds; i++ {
			var (
				runs atomic.Int32
				key  uint64
			)
			th := Fork(func() {
				runs.Add(1)
				key = gkey()
			})
			Join(th)
			if n := runs.Load(); n != 1 {
				t.Fatalf("round %d: function ran %d times before Join returned, want 1", i, n)
			}
			if got := lookupThread(key); got != nil {
				t.Fatalf("round %d: registry entry %v survived Join", i, got)
			}
		}
		if got := registrySize(); got > base {
			t.Fatalf("registry grew from %d to %d entries over %d Fork/Join rounds", base, got, forkRounds)
		}
	})
}

// TestForkDoesNotWaitForChild: Fork does not wait for its child to run. At
// GOMAXPROCS 1 the parent does not yield between Fork and the load below,
// so the child has not begun, and a flag its function sets first still
// reads 0.
func TestForkDoesNotWaitForChild(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 100; i++ {
		var started atomic.Int32
		th := Fork(func() { started.Store(1) })
		ran := started.Load()
		Join(th)
		if ran != 0 {
			t.Fatalf("round %d: the child's function had begun when Fork returned", i)
		}
	}
}

// TestForkBesideBusyThreads: a Fork returns in microseconds even when every
// processor is busy with a thread that computes without blocking. A Fork
// that waited for its child to run would wait for the scheduler to preempt
// one of them, 10 ms a slice. Each round Forks two such threads, the
// second once the first is computing, and the test bounds the median of
// each Fork over 20 rounds.
func TestForkBesideBusyThreads(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		const rounds = 20
		var forkNs [2][]float64
		for r := 0; r < rounds; r++ {
			var stop, running atomic.Bool
			busy := func() {
				running.Store(true)
				for !stop.Load() {
				}
			}
			start := time.Now()
			a := Fork(busy)
			forkNs[0] = append(forkNs[0], float64(time.Since(start)))
			for !running.Load() {
				runtime.Gosched()
			}
			start = time.Now()
			b := Fork(busy)
			forkNs[1] = append(forkNs[1], float64(time.Since(start)))
			stop.Store(true)
			Join(a)
			Join(b)
		}
		for i, ns := range forkNs {
			slices.Sort(ns)
			p50 := time.Duration(ns[rounds/2])
			t.Logf("Fork %d: p50 %v, max %v", i+1, p50, time.Duration(ns[rounds-1]))
			if p50 > 5*time.Millisecond {
				t.Errorf("Fork %d beside busy threads took %v at p50, want under 5ms", i+1, p50)
			}
		}
	})
}

// TestAlertExitedThread: Alert on a thread whose function has returned is
// benign. It neither panics nor blocks, the alert stays pending on the
// dead thread's record, and it leaves no registry entry and no goroutine
// behind.
func TestAlertExitedThread(t *testing.T) {
	base, goroutines := registrySize(), runtime.NumGoroutine()
	var key uint64
	th := Fork(func() { key = gkey() })
	Join(th)
	done := make(chan any)
	go func() {
		defer func() { done <- recover() }()
		Alert(th)
		Alert(th) // a second Alert of the dead thread is as harmless
	}()
	select {
	case p := <-done:
		if p != nil {
			t.Fatalf("Alert on an exited thread panicked: %v", p)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Alert on an exited thread blocked")
	}
	if !AlertPending(th) {
		t.Fatal("the alert did not stay on the exited thread's record")
	}
	if got := lookupThread(key); got != nil {
		t.Fatalf("Alert left registry entry %v for the exited thread", got)
	}
	if got := registrySize(); got > base {
		t.Fatalf("registry grew from %d to %d entries", base, got)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, want at most %d", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}
	Join(th) // Join on the exited thread still returns at once
}

// BenchmarkForkJoin is one thread's whole life: Fork of an empty function
// and its Join. Its allocations per op are pinned by the stable
// fork.allocs_per_forkjoin row of BENCH_1.json.
func BenchmarkForkJoin(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Join(Fork(func() {}))
	}
}
