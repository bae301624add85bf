// Contended-path workload drivers for experiments E11–E13 and the
// benchmark-regression harness. The root bench_test.go wraps these in
// testing.B loops; CollectRegressionMetrics times them directly so
// cmd/threadsbench -json can emit a baseline without the testing package.
package bench

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"threads/internal/core"
)

// RunLadder performs total Acquire/Release pairs on one shared mutex,
// split across n goroutines (E11). The critical section is empty: the
// benchmark isolates the synchronization cost itself, which is where
// adaptive spinning and zero-allocation parking show up.
func RunLadder(n, total int) {
	var m core.Mutex
	var wg sync.WaitGroup
	start := make(chan struct{})
	wg.Add(n)
	for i := 0; i < n; i++ {
		per := total / n
		if i < total%n {
			per++
		}
		go func(per int) {
			defer wg.Done()
			<-start
			for j := 0; j < per; j++ {
				m.Acquire()
				m.Release()
			}
		}(per)
	}
	close(start)
	wg.Wait()
}

// RunSignalStorm drives rounds generations of a Signal/Broadcast storm at
// a population of waiters (E12). Every round advances a monitored
// generation counter and fires one Broadcast plus one Signal — the
// Broadcast guarantees progress, the extra Signal exercises the claim
// races and the committed-count fast path.
func RunSignalStorm(waiters, rounds int) {
	var (
		m    core.Mutex
		c    core.Condition
		gen  int
		stop bool
		wg   sync.WaitGroup
	)
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			defer wg.Done()
			m.Acquire()
			last := gen
			for !stop {
				for gen == last && !stop {
					c.Wait(&m)
				}
				last = gen
			}
			m.Release()
		}()
	}
	for r := 0; r < rounds; r++ {
		m.Acquire()
		gen++
		m.Release()
		c.Signal()
		c.Broadcast()
	}
	m.Acquire()
	stop = true
	m.Release()
	c.Broadcast()
	wg.Wait()
}

// RunAlertPStorm performs total AlertP/V rounds on one shared binary
// semaphore across workers Fork-created threads while a driver goroutine
// sprays Alerts at random workers (E13). The holder keeps the semaphore
// across a scheduling point, so the other workers really block — and a
// blocked AlertP is exactly what Alert must be able to claim. It returns
// how many rounds ended in Alerted — the mix of the two WHEN clauses
// actually taken.
func RunAlertPStorm(workers, total int) (alerted uint64) {
	var (
		s     core.Semaphore
		ops   int64
		raise uint64
		wg    sync.WaitGroup
	)
	ths := make([]*core.Thread, workers)
	wg.Add(workers)
	for i := range ths {
		ths[i] = core.Fork(func() {
			defer wg.Done()
			for atomic.AddInt64(&ops, 1) <= int64(total) {
				if err := s.AlertP(); err != nil {
					atomic.AddUint64(&raise, 1)
					continue
				}
				runtime.Gosched() // hold s across a scheduling point
				s.V()
			}
		})
	}
	stop := make(chan struct{})
	alerterDone := make(chan struct{})
	go func() {
		defer close(alerterDone)
		r := rand.New(rand.NewSource(11))
		for {
			select {
			case <-stop:
				return
			default:
				core.Alert(ths[r.Intn(workers)])
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-alerterDone
	return atomic.LoadUint64(&raise)
}
