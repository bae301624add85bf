package core

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The stress tests raise GOMAXPROCS so the runtime timeslices aggressively
// even on small machines, widening the interleaving space the primitives
// are exposed to.

func TestStressMixedPrimitives(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const (
		workers = 10
		rounds  = 3000
	)
	var (
		m       Mutex
		c       Condition
		tokens  int
		sem     Semaphore
		counter int64
		wg      sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		Fork(func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				switch r.Intn(4) {
				case 0: // monitor producer
					m.Acquire()
					tokens++
					m.Release()
					c.Signal()
				case 1: // monitor consumer (bounded wait via broadcast flush)
					m.Acquire()
					for tokens == 0 && i < rounds-1 {
						// Don't sleep forever near the end of the run:
						// producers may all have finished.
						break
					}
					if tokens > 0 {
						tokens--
					}
					m.Release()
				case 2: // semaphore critical section
					sem.P()
					atomic.AddInt64(&counter, 1)
					sem.V()
				case 3: // alert churn against self
					Alert(Self())
					TestAlert()
				}
			}
		})
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitDone(t, done, "mixed-primitive stress workers")
	// Flush any waiter stuck from the tail of the run.
	c.Broadcast()
}

// TestStressAlertWaitChurn hammers the alert/signal arbitration: waiters
// continuously AlertWait, while one goroutine signals and another alerts.
// Every wait must terminate one way or the other and account exactly once.
func TestStressAlertWaitChurn(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const (
		waiters = 6
		perWait = 400
	)
	var (
		m Mutex
		c Condition
	)
	var normals, alerts int64
	var wg sync.WaitGroup
	wg.Add(waiters)
	handles := make([]*Thread, waiters)
	for i := 0; i < waiters; i++ {
		i := i
		handles[i] = Fork(func() {
			defer wg.Done()
			for n := 0; n < perWait; n++ {
				m.Acquire()
				err := c.AlertWait(&m)
				m.Release()
				if err == nil {
					atomic.AddInt64(&normals, 1)
				} else if errors.Is(err, Alerted) {
					atomic.AddInt64(&alerts, 1)
				} else {
					t.Errorf("unexpected error %v", err)
					return
				}
			}
		})
	}
	stop := make(chan struct{})
	var drivers sync.WaitGroup
	drivers.Add(2)
	go func() {
		defer drivers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Signal()
				runtime.Gosched()
			}
		}
	}()
	go func() {
		defer drivers.Done()
		r := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
				Alert(handles[r.Intn(waiters)])
				runtime.Gosched()
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitDone(t, done, "alert/signal churn waiters")
	close(stop)
	drivers.Wait()
	total := atomic.LoadInt64(&normals) + atomic.LoadInt64(&alerts)
	if total != waiters*perWait {
		t.Fatalf("accounted %d wait outcomes, want %d", total, waiters*perWait)
	}
	t.Logf("churn outcomes: %d normal, %d alerted", normals, alerts)
}

// TestStressBroadcastStorm: repeated broadcasts to rotating waiter
// populations; no waiter may be left behind.
func TestStressBroadcastStorm(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const generations = 150
	var (
		m   Mutex
		c   Condition
		gen int
	)
	for g := 0; g < generations; g++ {
		const pop = 5
		var wg sync.WaitGroup
		wg.Add(pop)
		target := g + 1
		for i := 0; i < pop; i++ {
			Fork(func() {
				defer wg.Done()
				m.Acquire()
				for gen < target {
					c.Wait(&m)
				}
				m.Release()
			})
		}
		// Let the whole population park, then advance.
		deadline := time.Now().Add(5 * time.Second)
		for c.Waiters() < pop {
			if time.Now().After(deadline) {
				t.Fatalf("generation %d: %d of %d waiters parked", g, c.Waiters(), pop)
			}
			time.Sleep(time.Millisecond)
		}
		m.Acquire()
		gen++
		m.Release()
		c.Broadcast()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		waitDone(t, done, "broadcast generation")
	}
}

// TestStressSemaphorePingPong: two threads strictly alternating through two
// semaphores — any lost V deadlocks.
func TestStressSemaphorePingPong(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var a, b Semaphore
	b.P() // B starts unavailable: A goes first
	const rounds = 20000
	var turns int64
	done := make(chan struct{})
	Fork(func() {
		for i := 0; i < rounds; i++ {
			a.P()
			atomic.AddInt64(&turns, 1)
			b.V()
		}
	})
	Fork(func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			b.P()
			atomic.AddInt64(&turns, 1)
			a.V()
		}
	})
	waitDone(t, done, "semaphore ping-pong")
	if got := atomic.LoadInt64(&turns); got != 2*rounds {
		t.Fatalf("turns = %d, want %d", got, 2*rounds)
	}
}

// TestStressManyMutexes: a fuzz over a pool of mutexes, each protecting a
// counter; totals must balance.
func TestStressManyMutexes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const (
		pools   = 16
		workers = 8
		ops     = 4000
	)
	mus := make([]Mutex, pools)
	counts := make([]int, pools)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		Fork(func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) * 7))
			for i := 0; i < ops; i++ {
				k := r.Intn(pools)
				mus[k].Acquire()
				counts[k]++
				mus[k].Release()
			}
		})
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitDone(t, done, "mutex pool workers")
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != workers*ops {
		t.Fatalf("total = %d, want %d (lost increments)", total, workers*ops)
	}
}

// TestStressCommitmentsQuiesce mixes every way of leaving a condition
// variable — Signal, Broadcast, Alert, a deadline, an elided Block —
// across two conditions, and checks that once every thread is joined each
// condition is empty and holds no commitment: whoever took a waiter out of
// c ended its commitment exactly once.
func TestStressCommitmentsQuiesce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const workers = 8
	perWorker := 1000
	if testing.Short() {
		perWorker = 100
	}
	var (
		m  Mutex
		cs [2]Condition
	)
	handles := make([]*Thread, workers)
	for i := range handles {
		r := rand.New(rand.NewSource(int64(i)))
		handles[i] = Fork(func() {
			for n := 0; n < perWorker; n++ {
				c := &cs[r.Intn(len(cs))]
				m.Acquire()
				switch r.Intn(3) {
				case 0:
					c.Wait(&m)
				case 1:
					_ = c.AlertWait(&m)
				default:
					d := time.Duration(50+r.Intn(151)) * time.Microsecond
					_ = c.AlertWaitDeadline(&m, time.Now().Add(d))
				}
				m.Release()
			}
		})
	}
	stop := make(chan struct{})
	driver := Fork(func() {
		r := rand.New(rand.NewSource(98))
		for {
			select {
			case <-stop:
				return
			default:
			}
			c := &cs[r.Intn(len(cs))]
			if r.Intn(4) == 0 {
				c.Broadcast()
			} else {
				c.Signal()
			}
			runtime.Gosched()
		}
	})
	alerter := Fork(func() {
		r := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Microsecond):
				Alert(handles[r.Intn(workers)])
			}
		}
	})
	done := make(chan struct{})
	go func() {
		for _, h := range handles {
			Join(h)
		}
		close(done)
	}()
	waitDone(t, done, "commitment churn workers")
	close(stop)
	Join(driver)
	Join(alerter)
	for i := range cs {
		if n, q := cs[i].committed.Load(), cs[i].Waiters(); n != 0 || q != 0 {
			t.Errorf("condition %d after every thread joined: committed = %d, %d queued; want 0 and 0", i, n, q)
		}
	}
}
