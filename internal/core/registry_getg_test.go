//go:build amd64 || arm64

package core

import "testing"

// TestReusedGNotMisidentified pins the hazard of keying the registry by g:
// an adopted goroutine that exits without Detach leaves its entry behind,
// and the runtime hands its g to a later goroutine. That goroutine must be
// adopted afresh, never given the dead goroutine's Thread and its pending
// alert.
func TestReusedGNotMisidentified(t *testing.T) {
	var (
		oldKey uint64
		old    *Thread
		done   = make(chan struct{})
	)
	go func() {
		defer close(done)
		old = Self()
		Alert(old) // left pending, and no Detach
		oldKey = gkey()
	}()
	<-done
	const spawns = 10000
	for i := 0; i < spawns; i++ {
		var (
			reused  bool
			self    *Thread
			alerted bool
			done    = make(chan struct{})
		)
		go func() {
			defer close(done)
			if gkey() != oldKey {
				return
			}
			reused = true
			self = Self()
			alerted = TestAlert()
		}()
		<-done
		if !reused {
			continue
		}
		if self == old {
			t.Fatalf("goroutine on a reused g got the exited goroutine's Thread %v", old)
		}
		if alerted {
			t.Fatal("goroutine on a reused g inherited the exited goroutine's pending alert")
		}
		return
	}
	t.Fatalf("no goroutine reused the exited goroutine's g within %d spawns", spawns)
}

// TestAdoptedRegistryGrowthBoundedWithoutDetach: adopted goroutines that
// exit without Detach leave stale entries, but each is overwritten when
// the runtime reuses its g for a goroutine that adopts, so sequential
// adopt-and-exit goroutines keep the registry small instead of leaking an
// entry apiece.
func TestAdoptedRegistryGrowthBoundedWithoutDetach(t *testing.T) {
	base := registrySize()
	const spawns = 10000
	for i := 0; i < spawns; i++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			Self() // adopt, then exit without Detach
		}()
		<-done
	}
	if got := registrySize(); got > base+256 {
		t.Fatalf("%d adopted goroutines exiting without Detach grew the registry from %d to %d entries, want at most %d more",
			spawns, base, got, 256)
	}
}
