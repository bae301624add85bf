//go:build !go1.23

package sim

import "runtime"

// coro is a coroutine built from a goroutine and two channels, for
// toolchains older than iter.Pull (coro.go). Each switch is a channel
// hand-off through the Go scheduler; the semantics are the same.
type coro struct {
	in, out chan struct{}
}

func newCoro(body func(yield func(struct{}) bool)) coro {
	c := coro{make(chan struct{}), make(chan struct{})}
	go func() {
		defer close(c.out)
		if _, ok := <-c.in; !ok {
			return
		}
		body(func(struct{}) bool {
			c.out <- struct{}{}
			_, ok := <-c.in
			return ok
		})
	}()
	return c
}

// resume runs the body until it yields or returns. A runtime.Goexit in the
// body is re-raised on the caller.
func (c coro) resume() {
	c.in <- struct{}{}
	if _, ok := <-c.out; !ok {
		runtime.Goexit()
	}
}

// close makes the pending yield return false and waits for the body to
// return.
func (c coro) close() {
	close(c.in)
	for range c.out {
	}
}
