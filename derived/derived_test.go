package derived

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"threads"
)

func waitDone(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timeout waiting for %s", what)
	}
}

// --- CountingSemaphore -----------------------------------------------------

func TestCountingSemaphoreLimitsConcurrency(t *testing.T) {
	const permits = 3
	s := NewCountingSemaphore(permits)
	var inside, maxInside, total int32
	var wg sync.WaitGroup
	wg.Add(10)
	for i := 0; i < 10; i++ {
		threads.Fork(func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				s.Acquire()
				n := atomic.AddInt32(&inside, 1)
				for {
					old := atomic.LoadInt32(&maxInside)
					if n <= old || atomic.CompareAndSwapInt32(&maxInside, old, n) {
						break
					}
				}
				atomic.AddInt32(&total, 1)
				atomic.AddInt32(&inside, -1)
				s.Release()
			}
		})
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitDone(t, done, "counting semaphore workers")
	if maxInside > permits {
		t.Fatalf("%d threads inside with %d permits", maxInside, permits)
	}
	if total != 2000 {
		t.Fatalf("total = %d", total)
	}
	if s.Permits() != permits {
		t.Fatalf("permits = %d after balanced use, want %d", s.Permits(), permits)
	}
}

func TestCountingSemaphoreTryAcquire(t *testing.T) {
	s := NewCountingSemaphore(1)
	if !s.TryAcquire() {
		t.Fatal("TryAcquire with a free permit failed")
	}
	if s.TryAcquire() {
		t.Fatal("TryAcquire with no permits succeeded")
	}
	s.Release()
	if !s.TryAcquire() {
		t.Fatal("TryAcquire after Release failed")
	}
	s.Release()
}

func TestCountingSemaphoreAlertAcquire(t *testing.T) {
	s := NewCountingSemaphore(0)
	errCh := make(chan error, 1)
	th := threads.Fork(func() { errCh <- s.AlertAcquire() })
	time.Sleep(10 * time.Millisecond)
	threads.Alert(th)
	threads.Join(th)
	if err := <-errCh; !errors.Is(err, threads.Alerted) {
		t.Fatalf("AlertAcquire returned %v, want Alerted", err)
	}
	if s.Permits() != 0 {
		t.Fatal("alerted acquire consumed a permit")
	}
}

func TestNewCountingSemaphorePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative permits")
		}
	}()
	NewCountingSemaphore(-1)
}

// TestQuickCountingSemaphoreConservation: random acquire/release sequences
// conserve permits.
func TestQuickCountingSemaphoreConservation(t *testing.T) {
	check := func(ops []bool) bool {
		s := NewCountingSemaphore(3)
		held := 0
		for _, acquire := range ops {
			if acquire {
				if s.TryAcquire() {
					held++
				}
			} else if held > 0 {
				s.Release()
				held--
			}
		}
		return s.Permits() == 3-held
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(41))}); err != nil {
		t.Fatal(err)
	}
}

// --- Barrier -----------------------------------------------------------------

func TestBarrierReleasesAllTogether(t *testing.T) {
	const parties = 5
	b := NewBarrier(parties)
	var before, after int32
	var wg sync.WaitGroup
	wg.Add(parties)
	for i := 0; i < parties; i++ {
		threads.Fork(func() {
			defer wg.Done()
			atomic.AddInt32(&before, 1)
			b.Await()
			// Everyone must have arrived before anyone proceeds.
			if atomic.LoadInt32(&before) != parties {
				t.Error("passed the barrier before all parties arrived")
			}
			atomic.AddInt32(&after, 1)
		})
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitDone(t, done, "barrier parties")
	if after != parties {
		t.Fatalf("after = %d", after)
	}
}

func TestBarrierIsCyclic(t *testing.T) {
	const parties, generations = 4, 30
	b := NewBarrier(parties)
	var tripped int32
	var wg sync.WaitGroup
	wg.Add(parties)
	for i := 0; i < parties; i++ {
		threads.Fork(func() {
			defer wg.Done()
			for g := 0; g < generations; g++ {
				if b.Await() {
					atomic.AddInt32(&tripped, 1)
				}
			}
		})
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitDone(t, done, "cyclic barrier generations")
	// Exactly one tripper per generation.
	if tripped != generations {
		t.Fatalf("tripped = %d, want %d", tripped, generations)
	}
}

func TestBarrierOfOne(t *testing.T) {
	b := NewBarrier(1)
	for i := 0; i < 5; i++ {
		if !b.Await() {
			t.Fatal("sole party should always trip the barrier")
		}
	}
}

// --- Latch -------------------------------------------------------------------

func TestLatch(t *testing.T) {
	l := NewLatch()
	if l.IsOpen() {
		t.Fatal("new latch open")
	}
	const waiters = 4
	var wg sync.WaitGroup
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		threads.Fork(func() {
			defer wg.Done()
			l.Wait()
		})
	}
	time.Sleep(10 * time.Millisecond)
	l.Open()
	l.Open() // idempotent
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitDone(t, done, "latch waiters")
	// Late waiters pass immediately.
	l.Wait()
	if !l.IsOpen() {
		t.Fatal("latch should be open")
	}
}

// --- Pool --------------------------------------------------------------------

func TestPoolGetPut(t *testing.T) {
	p := NewPool(1, 2, 3)
	if p.Size() != 3 {
		t.Fatalf("size = %d", p.Size())
	}
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		seen[p.Get()] = true
	}
	if len(seen) != 3 {
		t.Fatalf("got %v", seen)
	}
	if _, ok := p.TryGet(); ok {
		t.Fatal("TryGet on empty pool succeeded")
	}
	p.Put(9)
	if v, ok := p.TryGet(); !ok || v != 9 {
		t.Fatalf("TryGet = %v, %v", v, ok)
	}
}

func TestPoolBlocksUntilPut(t *testing.T) {
	p := NewPool[string]()
	got := make(chan string, 1)
	threads.Fork(func() { got <- p.Get() })
	select {
	case v := <-got:
		t.Fatalf("Get on empty pool returned %q", v)
	case <-time.After(20 * time.Millisecond):
	}
	p.Put("buffer")
	select {
	case v := <-got:
		if v != "buffer" {
			t.Fatalf("got %q", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Get never returned after Put")
	}
}

func TestPoolConcurrentChurn(t *testing.T) {
	p := NewPool(0, 1, 2, 3)
	const workers, rounds = 8, 500
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		threads.Fork(func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				item := p.Get()
				p.Put(item)
			}
		})
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitDone(t, done, "pool churn")
	if p.Size() != 4 {
		t.Fatalf("pool size = %d after balanced churn, want 4", p.Size())
	}
}

// --- RWLock --------------------------------------------------------------------

func TestRWLockExclusionAndSharing(t *testing.T) {
	l := NewRWLock()
	var data, torn int64
	const readers, tryReaders, writers, ops = 6, 2, 2, 1500
	var wg sync.WaitGroup
	wg.Add(readers + tryReaders + writers)
	var shadow [2]int64
	read := func() {
		if shadow[0] != shadow[1] {
			atomic.AddInt64(&torn, 1)
		}
	}
	for i := 0; i < readers; i++ {
		threads.Fork(func() {
			defer wg.Done()
			for j := 0; j < ops; j++ {
				l.RLock()
				read()
				l.RUnlock()
			}
		})
	}
	for i := 0; i < tryReaders; i++ {
		threads.Fork(func() {
			defer wg.Done()
			for j := 0; j < ops; j++ {
				if l.TryRLock() {
					read()
					l.RUnlock()
				}
			}
		})
	}
	for i := 0; i < writers; i++ {
		threads.Fork(func() {
			defer wg.Done()
			for j := 0; j < ops; j++ {
				l.Lock()
				data++
				shadow[0] = data
				shadow[1] = data
				l.Unlock()
			}
		})
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitDone(t, done, "rwlock workers")
	if torn != 0 {
		t.Fatalf("%d torn reads", torn)
	}
	if data != writers*ops {
		t.Fatalf("data = %d, want %d", data, writers*ops)
	}
	if n := l.Readers(); n != 0 {
		t.Fatalf("Readers() = %d after all readers left, want 0", n)
	}
}

// TestRWLockWriterPreference: once a writer waits for a reader to leave,
// new readers queue behind it — TryRLock fails and RLock blocks until the
// writer has unlocked.
func TestRWLockWriterPreference(t *testing.T) {
	l := NewRWLock()
	l.RLock()
	var unlocked atomic.Bool
	writerDone := make(chan struct{})
	threads.Fork(func() {
		defer close(writerDone)
		l.Lock()
		unlocked.Store(true) // before Unlock, so readers admitted after it see it
		l.Unlock()
	})
	deadline := time.Now().Add(5 * time.Second)
	for l.TryRLock() {
		l.RUnlock()
		if time.Now().After(deadline) {
			t.Fatal("writer never counted itself in")
		}
		time.Sleep(time.Millisecond)
	}
	readerDone := make(chan struct{})
	threads.Fork(func() {
		defer close(readerDone)
		l.RLock()
		if !unlocked.Load() {
			t.Error("RLock returned while a writer was pending")
		}
		l.RUnlock()
	})
	// The writer and the new reader both park on changed.
	for l.changed.Waiters() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("new reader never blocked behind the pending writer")
		}
		time.Sleep(time.Millisecond)
	}
	if l.TryRLock() {
		t.Fatal("TryRLock succeeded while a writer was pending")
	}
	l.RUnlock()
	waitDone(t, writerDone, "writer")
	waitDone(t, readerDone, "reader behind the writer")
}

// TestRWLockMisusePanics: both misuses panic, and the RUnlock panic leaves
// the reader count intact, so the lock stays usable by readers and writers.
func TestRWLockMisusePanics(t *testing.T) {
	l := NewRWLock()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RUnlock without RLock did not panic")
			}
		}()
		l.RUnlock()
	}()
	if n := l.Readers(); n != 0 {
		t.Fatalf("Readers() = %d after the RUnlock panic, want 0", n)
	}
	done := make(chan struct{})
	threads.Fork(func() {
		defer close(done)
		l.RLock()
		l.RUnlock()
		l.Lock()
		l.Unlock()
	})
	waitDone(t, done, "RLock and Lock after the RUnlock panic")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Unlock without Lock did not panic")
			}
		}()
		l.Unlock()
	}()
}

func TestRWLockTryRLock(t *testing.T) {
	l := NewRWLock()
	if !l.TryRLock() {
		t.Fatal("TryRLock on open lock failed")
	}
	l.RUnlock()
	l.Lock()
	if l.TryRLock() {
		t.Fatal("TryRLock succeeded while write-locked")
	}
	l.Unlock()
}

// --- Future --------------------------------------------------------------------

func TestFutureSetGet(t *testing.T) {
	f := NewFuture[int]()
	if _, ok := f.TryGet(); ok {
		t.Fatal("unset future TryGet succeeded")
	}
	results := make(chan int, 3)
	var wg sync.WaitGroup
	wg.Add(3)
	for i := 0; i < 3; i++ {
		threads.Fork(func() {
			defer wg.Done()
			results <- f.Get()
		})
	}
	time.Sleep(10 * time.Millisecond)
	f.Set(42)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitDone(t, done, "future waiters")
	for i := 0; i < 3; i++ {
		if v := <-results; v != 42 {
			t.Fatalf("got %d", v)
		}
	}
	if !f.Done() {
		t.Fatal("future not done after Set")
	}
}

func TestFutureSetTwicePanics(t *testing.T) {
	f := NewFuture[int]()
	f.Set(1)
	defer func() {
		if recover() == nil {
			t.Fatal("second Set did not panic")
		}
	}()
	f.Set(2)
}

func TestFutureAlertGet(t *testing.T) {
	f := NewFuture[string]()
	type res struct {
		v   string
		err error
	}
	results := make(chan res, 1)
	th := threads.Fork(func() {
		v, err := f.AlertGet()
		results <- res{v, err}
	})
	time.Sleep(10 * time.Millisecond)
	threads.Alert(th)
	threads.Join(th)
	r := <-results
	if !errors.Is(r.err, threads.Alerted) {
		t.Fatalf("AlertGet = %v, want Alerted", r.err)
	}
	// The future still works for everyone else.
	f.Set("late")
	if f.Get() != "late" {
		t.Fatal("future broken after an alerted Get")
	}
}
