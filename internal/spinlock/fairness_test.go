package spinlock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// acquisitionCounts runs one "pinned" spinner and n-1 contenders hammering
// the same lock for the given duration and returns each goroutine's
// acquisition count (index 0 is the pinned spinner). The pinned spinner
// re-acquires immediately with no pause between its critical sections — the
// adversarial pattern under which a TAS lock, whose hand-off goes to
// whichever processor wins the next bus transaction (usually the one that
// just released, with the line still exclusive in its cache), can starve
// everyone else indefinitely.
func acquisitionCounts(n int, d time.Duration) []uint64 {
	var l Lock
	counts := make([]uint64, n)
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for !stop.Load() {
				l.Lock()
				counts[g]++
				l.Unlock()
				if g != 0 {
					// Contenders do a little work outside the critical
					// section; the pinned spinner (g = 0) does not.
					Pause(pauseIters)
				}
			}
		}(g)
	}
	close(start)
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	return counts
}

// TestTASProgress documents what the TAS lock does guarantee (and all it
// guarantees): someone always makes progress. No per-goroutine fairness is
// asserted — the paper's spin lock promises none, and on a lightly loaded
// machine the Go scheduler's preemption can accidentally rescue the
// contenders anyway.
func TestTASProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based stress test")
	}
	counts := acquisitionCounts(4, 50*time.Millisecond)
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		t.Fatalf("no acquisitions at all under TAS: counts = %v", counts)
	}
}
