package spinlock

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestLockUnlock(t *testing.T) {
	var l Lock
	l.Lock()
	if !l.Held() {
		t.Fatal("lock should be held after Lock")
	}
	l.Unlock()
	if l.Held() {
		t.Fatal("lock should not be held after Unlock")
	}
}

func TestTryLock(t *testing.T) {
	var l Lock
	if !l.TryLock() {
		t.Fatal("TryLock on free lock should succeed")
	}
	if l.TryLock() {
		t.Fatal("TryLock on held lock should fail")
	}
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("TryLock after Unlock should succeed")
	}
	l.Unlock()
}

// TestMutualExclusion hammers a shared counter from many goroutines; any
// exclusion failure shows up as a lost increment.
func TestMutualExclusion(t *testing.T) {
	const (
		goroutines = 8
		iters      = 20000
	)
	var (
		l       Lock
		counter int
		wg      sync.WaitGroup
	)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*iters {
		t.Fatalf("lost updates: got %d, want %d", counter, goroutines*iters)
	}
}

// TestCriticalSectionOverlap verifies directly that two critical sections
// never overlap, using an inside flag rather than counter arithmetic.
func TestCriticalSectionOverlap(t *testing.T) {
	var (
		l      Lock
		inside int32
		wg     sync.WaitGroup
	)
	fail := make(chan struct{}, 1)
	wg.Add(4)
	for g := 0; g < 4; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				l.Lock()
				inside++
				if inside != 1 {
					select {
					case fail <- struct{}{}:
					default:
					}
				}
				inside--
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	select {
	case <-fail:
		t.Fatal("two goroutines were inside the critical section at once")
	default:
	}
}

func TestZeroValueIsUnlocked(t *testing.T) {
	var l Lock
	if l.Held() {
		t.Fatal("zero-value lock reports held")
	}
	if !l.TryLock() {
		t.Fatal("zero-value lock cannot be acquired")
	}
	l.Unlock()
}

// TestHolderProgress checks that a spinner does not permanently starve the
// holder on a single-processor configuration (the Gosched in the spin loop).
func TestHolderProgress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var l Lock
	l.Lock()
	released := make(chan struct{})
	go func() {
		l.Lock() // spins until main releases
		l.Unlock()
		close(released)
	}()
	// Let the spinner get going, then release on the same processor.
	time.Sleep(5 * time.Millisecond)
	l.Unlock()
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("spinner never acquired the lock after release (livelock)")
	}
}
