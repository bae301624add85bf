package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWaitSignalBasic(t *testing.T) {
	var (
		m     Mutex
		c     Condition
		ready bool
	)
	done := make(chan struct{})
	Fork(func() {
		defer close(done)
		m.Acquire()
		for !ready {
			c.Wait(&m)
		}
		m.Release()
	})
	time.Sleep(20 * time.Millisecond)
	m.Acquire()
	ready = true
	m.Release()
	c.Signal()
	waitDone(t, done, "waiter after Signal")
}

func TestWaitReleasesMutex(t *testing.T) {
	// The Enqueue action sets m' = NIL: while the waiter is blocked the
	// mutex must be acquirable by others.
	var (
		m Mutex
		c Condition
	)
	waiting := make(chan struct{})
	done := make(chan struct{})
	Fork(func() {
		defer close(done)
		m.Acquire()
		close(waiting)
		c.Wait(&m)
		m.Release()
	})
	waitDone(t, waiting, "waiter to enter critical section")
	acquired := make(chan struct{})
	Fork(func() {
		m.Acquire()
		close(acquired)
		m.Release()
		c.Signal()
	})
	waitDone(t, acquired, "mutex to be released by Wait's Enqueue")
	waitDone(t, done, "waiter to resume")
}

func TestWaitReacquiresMutex(t *testing.T) {
	// The Resume action sets m' = SELF: on return from Wait the thread is
	// in a new critical section.
	var (
		m Mutex
		c Condition
	)
	done := make(chan struct{})
	Fork(func() {
		defer close(done)
		m.Acquire()
		c.Wait(&m)
		if !m.Held() {
			t.Error("mutex not held on return from Wait")
		}
		m.Release()
	})
	time.Sleep(20 * time.Millisecond)
	for c.Waiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	c.Signal()
	waitDone(t, done, "waiter to return from Wait")
}

func TestSignalWithNoWaitersIsNoop(t *testing.T) {
	defer EnableStats(EnableStats(true))
	ResetStats()
	var c Condition
	for i := 0; i < 50; i++ {
		c.Signal()
		c.Broadcast()
	}
	s := SnapshotStats()
	if s.SignalFast != 50 || s.SignalNub != 0 {
		t.Fatalf("Signal with no waiters: fast=%d nub=%d", s.SignalFast, s.SignalNub)
	}
	if s.BcastFast != 50 || s.BcastNub != 0 {
		t.Fatalf("Broadcast with no waiters: fast=%d nub=%d", s.BcastFast, s.BcastNub)
	}
}

func TestBroadcastWakesAll(t *testing.T) {
	const waiters = 10
	var (
		m    Mutex
		c    Condition
		gate bool
		wg   sync.WaitGroup
	)
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		Fork(func() {
			defer wg.Done()
			m.Acquire()
			for !gate {
				c.Wait(&m)
			}
			m.Release()
		})
	}
	// Wait for all to block.
	deadline := time.Now().Add(5 * time.Second)
	for c.Waiters() < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d waiters blocked", c.Waiters(), waiters)
		}
		time.Sleep(time.Millisecond)
	}
	m.Acquire()
	gate = true
	m.Release()
	c.Broadcast()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitDone(t, done, "all broadcast waiters")
}

// TestSignalWakesOneQueuedWaiter: with all waiters fully blocked (not
// racing), one Signal admits exactly one.
func TestSignalWakesOneQueuedWaiter(t *testing.T) {
	const waiters = 6
	var (
		m      Mutex
		c      Condition
		tokens int
		woken  int32
		wg     sync.WaitGroup
	)
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		Fork(func() {
			defer wg.Done()
			m.Acquire()
			for tokens == 0 {
				c.Wait(&m)
			}
			tokens--
			atomic.AddInt32(&woken, 1)
			m.Release()
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Waiters() < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d waiters blocked", c.Waiters(), waiters)
		}
		time.Sleep(time.Millisecond)
	}
	// One token, one Signal: exactly one thread should get through.
	m.Acquire()
	tokens = 1
	m.Release()
	c.Signal()
	time.Sleep(100 * time.Millisecond)
	if n := atomic.LoadInt32(&woken); n != 1 {
		t.Fatalf("%d threads consumed tokens after one Signal with one token", n)
	}
	// Drain the rest.
	m.Acquire()
	tokens = waiters - 1
	m.Release()
	c.Broadcast()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitDone(t, done, "remaining waiters")
}

// TestProducerConsumer runs the canonical bounded-buffer monitor and checks
// that every item is delivered exactly once in order per producer.
func TestProducerConsumer(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 2000
		capacity  = 8
	)
	var (
		m        Mutex
		nonEmpty Condition
		nonFull  Condition
		buf      []int
		got      = make(map[int]int)
		gotMu    sync.Mutex
		wg       sync.WaitGroup
	)
	produced := 0
	wg.Add(producers + consumers)
	for p := 0; p < producers; p++ {
		p := p
		Fork(func() {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				item := p*perProd + i
				m.Acquire()
				for len(buf) == capacity {
					nonFull.Wait(&m)
				}
				buf = append(buf, item)
				produced++
				m.Release()
				nonEmpty.Signal()
			}
		})
	}
	total := producers * perProd
	var consumed int32
	for cn := 0; cn < consumers; cn++ {
		Fork(func() {
			defer wg.Done()
			for {
				m.Acquire()
				for len(buf) == 0 {
					if int(atomic.LoadInt32(&consumed)) == total {
						m.Release()
						return
					}
					nonEmpty.Wait(&m)
				}
				item := buf[0]
				buf = buf[1:]
				n := atomic.AddInt32(&consumed, 1)
				m.Release()
				nonFull.Signal()
				gotMu.Lock()
				got[item]++
				gotMu.Unlock()
				if int(n) == total {
					// Wake peers blocked on nonEmpty so they can exit.
					nonEmpty.Broadcast()
					return
				}
			}
		})
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitDone(t, done, "producer-consumer completion")
	if len(got) != total {
		t.Fatalf("delivered %d distinct items, want %d", len(got), total)
	}
	for item, n := range got {
		if n != 1 {
			t.Fatalf("item %d delivered %d times", item, n)
		}
	}
}

// TestNoLostWakeup hammers the Enqueue window: a signaller that changes the
// predicate under the mutex and signals after releasing must never leave
// the waiter blocked forever. This is the wakeup-waiting race (E4); the
// eventcount in block() is what closes it.
func TestNoLostWakeup(t *testing.T) {
	for round := 0; round < 300; round++ {
		var (
			m     Mutex
			c     Condition
			ready bool
		)
		done := make(chan struct{})
		Fork(func() {
			defer close(done)
			m.Acquire()
			for !ready {
				c.Wait(&m)
			}
			m.Release()
		})
		Fork(func() {
			m.Acquire()
			ready = true
			m.Release()
			c.Signal()
		})
		waitDone(t, done, "waiter (possible lost wakeup)")
	}
}

// TestWaitIsAHint: a third thread may invalidate the predicate between
// Signal and the waiter's Resume, so the waiter must loop. This test
// verifies the program pattern works (and exercises the hint semantics); it
// cannot assert a spurious resume occurs, only that correctness survives.
func TestWaitIsAHint(t *testing.T) {
	var (
		m     Mutex
		c     Condition
		avail int
		taken int32
	)
	const items = 500
	var wg sync.WaitGroup
	// Two greedy consumers and one "thief" racing for each item.
	wg.Add(2)
	for k := 0; k < 2; k++ {
		Fork(func() {
			defer wg.Done()
			for int(atomic.LoadInt32(&taken)) < items {
				m.Acquire()
				for avail == 0 && int(atomic.LoadInt32(&taken)) < items {
					c.Wait(&m)
				}
				if avail > 0 {
					avail--
					atomic.AddInt32(&taken, 1)
				}
				m.Release()
			}
		})
	}
	for i := 0; i < items; i++ {
		m.Acquire()
		avail++
		m.Release()
		c.Signal()
		if i%7 == 0 {
			// Occasionally steal it back immediately, so waiters resume
			// to a false predicate and must Wait again.
			m.Acquire()
			if avail > 0 {
				avail--
				atomic.AddInt32(&taken, 1)
			}
			m.Release()
		}
	}
	// Flush any final waiters.
	for int(atomic.LoadInt32(&taken)) < items {
		c.Broadcast()
		time.Sleep(time.Millisecond)
	}
	c.Broadcast()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitDone(t, done, "hint-semantics consumers")
}

func TestWaitersAdvisoryCount(t *testing.T) {
	var (
		m Mutex
		c Condition
	)
	if c.Waiters() != 0 {
		t.Fatal("fresh condition reports waiters")
	}
	done := make(chan struct{})
	Fork(func() {
		defer close(done)
		m.Acquire()
		c.Wait(&m)
		m.Release()
	})
	deadline := time.Now().Add(5 * time.Second)
	for c.Waiters() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("Waiters = %d, want 1", c.Waiters())
		}
		time.Sleep(time.Millisecond)
	}
	c.Signal()
	waitDone(t, done, "single waiter")
}

// TestSignalEndsCommitment checks that Signal and Broadcast end the
// commitment of every waiter they take out of c: right after the call, c is
// empty and a second Signal stays in user code, although the woken threads
// have not run yet. GOMAXPROCS(1) keeps them from running before the
// assertions, since the test goroutine does not block in between.
func TestSignalEndsCommitment(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer EnableStats(EnableStats(true))
	for _, tc := range []struct {
		name    string
		waiters int
		alert   bool
		wake    func(*Condition)
	}{
		{"Signal/Wait", 1, false, (*Condition).Signal},
		{"Broadcast/Wait", 3, false, (*Condition).Broadcast},
		{"Signal/AlertWait", 1, true, (*Condition).Signal},
	} {
		var (
			m     Mutex
			c     Condition
			ready bool
			wg    sync.WaitGroup
		)
		wg.Add(tc.waiters)
		for i := 0; i < tc.waiters; i++ {
			Fork(func() {
				defer wg.Done()
				m.Acquire()
				for !ready {
					if tc.alert {
						_ = c.AlertWait(&m)
					} else {
						c.Wait(&m)
					}
				}
				m.Release()
			})
		}
		deadline := time.Now().Add(5 * time.Second)
		for c.Waiters() < tc.waiters {
			if time.Now().After(deadline) {
				t.Fatalf("%s: only %d/%d waiters blocked", tc.name, c.Waiters(), tc.waiters)
			}
			time.Sleep(time.Millisecond)
		}
		m.Acquire()
		ready = true
		m.Release()
		tc.wake(&c)
		committed := c.committed.Load()
		fast := SnapshotStats().SignalFast
		c.Signal()
		fast = SnapshotStats().SignalFast - fast
		wg.Wait()
		if committed != 0 {
			t.Errorf("%s: committed = %d right after the wake, want 0", tc.name, committed)
		}
		if fast != 1 {
			t.Errorf("%s: the next Signal counted %d SignalFast, want 1", tc.name, fast)
		}
	}
}

// TestMisusedWaitLeavesNoCommitment checks that in checked mode Wait and
// AlertWait on a mutex the caller does not hold panic before they commit
// to c or emit anything: after the recovered panic c.committed is 0, the
// next Signal stays in user code, and a traced run records no Enqueue.
func TestMisusedWaitLeavesNoCommitment(t *testing.T) {
	defer SetChecking(SetChecking(true))
	defer EnableStats(EnableStats(true))
	for _, traced := range []bool{false, true} {
		for _, tc := range []struct {
			name string
			wait func(*Condition, *Mutex)
		}{
			{"Wait", (*Condition).Wait},
			{"AlertWait", func(c *Condition, m *Mutex) { _ = c.AlertWait(m) }},
		} {
			var (
				m Mutex
				c Condition
			)
			if traced {
				StartTracing(1 << 8)
			}
			done := make(chan struct{})
			Fork(func() {
				defer close(done)
				defer func() {
					if recover() == nil {
						t.Errorf("%s on an unheld mutex did not panic in checked mode", tc.name)
					}
				}()
				tc.wait(&c, &m)
			})
			waitDone(t, done, tc.name+" on an unheld mutex")
			if traced {
				StopTracing()
				shards, _ := CollectTrace()
				for _, sh := range shards {
					for _, r := range sh {
						if r.Kind == TraceEnqueue {
							t.Errorf("traced %s on an unheld mutex emitted Enqueue", tc.name)
						}
					}
				}
			}
			if n := c.committed.Load(); n != 0 {
				t.Errorf("traced=%v: committed = %d after a panicked %s, want 0", traced, n, tc.name)
			}
			fast := SnapshotStats().SignalFast
			c.Signal()
			if got := SnapshotStats().SignalFast - fast; got != 1 {
				t.Errorf("traced=%v: Signal after a panicked %s counted %d SignalFast, want 1", traced, tc.name, got)
			}
		}
	}
}
