package sim

// Carriers is a pool of carriers, the coroutines that simulated threads
// run on. A thread takes a carrier from its run's pool at its first step
// and returns it when its body ends, so the next thread, in the same run
// or a later one, starts on a stack that has already grown instead of on
// a fresh goroutine's.
//
// A pool is not safe for concurrent use: it serves one run at a time, so
// each goroutine that runs kernels holds its own. The zero value is an
// empty pool ready to use.
type Carriers struct {
	free []*carrier
}

// Close ends the pool's idle carriers and their goroutines. It must not be
// called while a run is using the pool. The pool stays usable, and makes
// new carriers as runs need them.
func (p *Carriers) Close() {
	for _, c := range p.free {
		c.co.close()
	}
	p.free = nil
}

func (p *Carriers) get() *carrier {
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		return c
	}
	c := new(carrier)
	c.co = newCoro(c.loop)
	return c
}

func (p *Carriers) put(c *carrier) { p.free = append(p.free, c) }

// carrier is one coroutine that runs thread bodies one after another. Run
// resumes it to run its thread's next step; the thread yields back to Run
// when it hands the baton to another thread, and when its body ends.
type carrier struct {
	co    coro
	yield func(struct{}) bool
	t     *T // the thread it runs; nil once that thread's body has ended
}

// loop is the carrier's coroutine body. Every resume after the previous
// thread ended starts the thread Run has since assigned to c.t.
func (c *carrier) loop(yield func(struct{}) bool) {
	c.yield = yield
	growStack(0)
	for {
		c.t.main()
		c.t = nil
		if !yield(struct{}{}) {
			return
		}
	}
}

// carrierStack is how far a carrier's stack grows before its first
// thread runs: as far as thread bodies reach, the Trace and OnStep hooks
// and the allocations they make included. A goroutine starts on a small
// stack, and a stack that grows under a thread body is copied with a walk
// over each of its frames; grown here, under two frames, the copy is
// cheap. A run on new carriers, as on every new kernel that is given no
// pool, spent a fifth of its time in those copies.
const carrierStack = 14 << 10

// growStack makes the calling goroutine's stack hold a frame of
// carrierStack bytes.
//
//go:noinline
func growStack(i int) byte {
	var pad [carrierStack]byte
	pad[i] = 1
	return pad[len(pad)-1-i]
}
