package core

import (
	"sync"
	"testing"
)

// registrySize counts registry entries across all shards, including stale
// ones left by adopted goroutines that exited without Detach.
func registrySize() int {
	n := 0
	for _, s := range registry {
		s.lock.Lock()
		n += len(s.m)
		s.lock.Unlock()
	}
	return n
}

// TestAdoptedGoroutinesDetachWithoutRegistryGrowth is the regression test
// for the Detach audit: every raw goroutine that touches a primitive is
// adopted into the registry by Self(), and Detach frees that entry before
// the goroutine exits instead of leaving it for a later goroutine on the
// same g to reclaim. The test adopts a burst of transient goroutines,
// verifies each is registered under its own key while alive, and asserts
// the registry is no larger than its baseline once they Detach.
func TestAdoptedGoroutinesDetachWithoutRegistryGrowth(t *testing.T) {
	base := registrySize()
	const n = 128
	var (
		m       Mutex
		adopted sync.WaitGroup
		release = make(chan struct{})
		wg      sync.WaitGroup
		keys    [n]uint64
		selves  [n]*Thread
	)
	adopted.Add(n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			defer Detach()
			selves[i] = Self() // adopt (uncontended Acquire never computes SELF)
			keys[i] = gkey()
			m.Acquire()
			m.Release()
			adopted.Done()
			<-release // hold the registration until the mid-flight check
		}()
	}
	adopted.Wait()
	for i := range keys {
		if got := lookupThread(keys[i]); got != selves[i] {
			t.Fatalf("live adopted goroutine %d is registered as %v, want %v", i, got, selves[i])
		}
	}
	close(release)
	wg.Wait()
	if got := registrySize(); got > base {
		t.Fatalf("registry grew from %d to %d after all adopted goroutines detached", base, got)
	}
}
