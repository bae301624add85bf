//go:build go1.23

package sim

import "iter"

// coro is a coroutine: resume runs its body until the body yields, and
// the switch in either direction goes straight from one goroutine to the
// other, past the Go scheduler. iter.Pull provides it.
type coro struct {
	next func() (struct{}, bool)
	stop func()
}

func newCoro(body func(yield func(struct{}) bool)) coro {
	next, stop := iter.Pull(body)
	return coro{next, stop}
}

// resume runs the body until it yields or returns. A runtime.Goexit in the
// body is re-raised on the caller.
func (c coro) resume() { c.next() }

// close makes the pending yield return false and waits for the body to
// return.
func (c coro) close() { c.stop() }
