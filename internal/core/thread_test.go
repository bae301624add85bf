package core

import (
	"sync"
	"testing"
	"time"
)

// waitDone fails the test if ch does not close within the deadline; every
// potentially-blocking assertion in this package goes through it so a
// synchronization bug surfaces as a test failure, not a hung test binary.
func waitDone(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timeout waiting for %s", what)
	}
}

func TestForkJoin(t *testing.T) {
	ran := false
	th := Fork(func() { ran = true })
	Join(th)
	if !ran {
		t.Fatal("forked function did not run before Join returned")
	}
}

func TestForkSelfIdentity(t *testing.T) {
	var inside *Thread
	th := Fork(func() { inside = Self() })
	Join(th)
	if inside != th {
		t.Fatalf("Self inside forked thread = %v, want the Fork handle %v", inside, th)
	}
}

func TestSelfStableWithinGoroutine(t *testing.T) {
	a := Self()
	b := Self()
	if a != b {
		t.Fatal("two Self calls on the same goroutine returned different Threads")
	}
}

func TestSelfDistinctAcrossGoroutines(t *testing.T) {
	const n = 16
	var mu sync.Mutex
	seen := map[*Thread]bool{}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		Fork(func() {
			defer wg.Done()
			s := Self()
			mu.Lock()
			if seen[s] {
				t.Error("two threads shared a Self")
			}
			seen[s] = true
			mu.Unlock()
		})
	}
	wg.Wait()
}

func TestForkNamed(t *testing.T) {
	th := ForkNamed("consumer", func() {})
	Join(th)
	if th.Name() != "consumer" {
		t.Fatalf("Name = %q, want consumer", th.Name())
	}
	if th.String() != "consumer" {
		t.Fatalf("String = %q", th.String())
	}
	var nilT *Thread
	if nilT.String() != "NIL" {
		t.Fatalf("nil Thread String = %q, want NIL", nilT.String())
	}
}

func TestThreadIDsUnique(t *testing.T) {
	a := Fork(func() {})
	b := Fork(func() {})
	Join(a)
	Join(b)
	if a.ID() == b.ID() {
		t.Fatal("two forked threads share an ID")
	}
}

func TestJoinAdoptedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Join on adopted thread should panic")
		}
	}()
	Join(Self())
}

func TestRegistryCleanupAfterExit(t *testing.T) {
	var key uint64
	var inside *Thread
	th := Fork(func() {
		key = gkey()
		inside = lookupThread(key)
	})
	Join(th)
	if inside != th {
		t.Fatalf("forked thread registered as %v, want %v", inside, th)
	}
	if lookupThread(key) != nil {
		t.Fatal("registry entry survived thread exit")
	}
}

func TestDetach(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		s := Self() // adopt
		if lookupThread(gkey()) != s {
			t.Error("adopted thread not registered")
		}
		Detach()
		if lookupThread(gkey()) != nil {
			t.Error("Detach left a registry entry")
		}
	}()
	waitDone(t, done, "detaching goroutine")
}

// TestDetachOnForkedThreadKeepsIdentity: Detach called from a Fork'd thread
// must leave its registry entry alone. Were the entry dropped, the thread's
// next Self would adopt a second Thread, and Alert(th) would set a flag
// that no wait is watching: the AlertWait below would never end.
func TestDetachOnForkedThreadKeepsIdentity(t *testing.T) {
	var (
		m       Mutex
		c       Condition
		err     error
		self    *Thread
		waiting = make(chan struct{})
	)
	th := Fork(func() {
		Detach()
		m.Acquire()
		close(waiting)
		err = c.AlertWait(&m)
		m.Release()
		self = Self()
	})
	<-waiting
	m.Acquire() // the child released m inside AlertWait
	Alert(th)
	m.Release()
	done := make(chan struct{})
	go func() { Join(th); close(done) }()
	waitDone(t, done, "AlertWait of a forked thread that called Detach")
	if err != Alerted {
		t.Fatalf("AlertWait = %v, want Alerted", err)
	}
	if self != th {
		t.Fatalf("Self after Detach = %v, want the Fork handle %v", self, th)
	}
}

func TestGoidParses(t *testing.T) {
	if goid() == 0 {
		t.Fatal("goid returned 0; stack header parse failed")
	}
	// Distinct goroutines must report distinct ids.
	var other uint64
	done := make(chan struct{})
	go func() { other = goid(); close(done) }()
	waitDone(t, done, "goid goroutine")
	if other == goid() {
		t.Fatal("two goroutines reported the same goid")
	}
}

func TestManyConcurrentForks(t *testing.T) {
	const n = 200
	var counter int64
	var mu sync.Mutex
	handles := make([]*Thread, n)
	for i := range handles {
		handles[i] = Fork(func() {
			mu.Lock()
			counter++
			mu.Unlock()
		})
	}
	for _, h := range handles {
		Join(h)
	}
	if counter != n {
		t.Fatalf("ran %d bodies, want %d", counter, n)
	}
}
