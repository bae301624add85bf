// Timeouts and aborts via alerting — the facility's intended use: "Alerting
// provides a polite form of interrupt ... typically to implement things
// such as timeouts and aborts. It allows a thread to request that another
// thread desist from a computation," at a higher abstraction level than the
// one in which the thread is blocked.
//
// The timeout half also demonstrates the stale-alert race and both ways
// out of it. An Alert is a persistent single bit: once the timer fires,
// timer.Stop cannot retract it, and if the call completed first the
// leftover alert poisons the thread's NEXT alertable wait. withTimeout
// shows the manual discipline (drain with TestAlert on the loser's path);
// awaitDeadline shows the packaged form — AlertWaitDeadline runs the same
// cancel-and-drain epilogue internally on every exit path.
package main

import (
	"errors"
	"fmt"
	"time"

	"threads"
)

// rpc models a remote call that may never complete: the reply arrives via
// a condition variable that, in the failure case, is never signalled.
type rpc struct {
	mu    threads.Mutex //threads:guards done,value
	reply threads.Condition
	done  bool
	value string
}

// await blocks until the reply arrives or the caller is alerted; it uses
// AlertWait because this is exactly the point at which the thread should
// respond to an Alert.
func (r *rpc) await() (string, error) {
	r.mu.Acquire()
	defer r.mu.Release()
	for !r.done {
		if err := r.reply.AlertWait(&r.mu); err != nil {
			return "", err // Alerted: the timeout fired
		}
	}
	return r.value, nil
}

// awaitDeadline is await with the deadline packaged into the wait itself:
// no timer, no Alert plumbing, no epilogue to get wrong. The thread's
// runtime timer alerts it if the deadline passes, and AlertWaitDeadline
// stops that timer or awaits its fire and drains on every return path, so
// the completion/deadline race cannot leak an alert no matter who wins.
func (r *rpc) awaitDeadline(deadline time.Time) (string, error) {
	r.mu.Acquire()
	defer r.mu.Release()
	for !r.done {
		if err := r.reply.AlertWaitDeadline(&r.mu, deadline); err != nil {
			return "", err // DeadlineExceeded, or Alerted by someone else
		}
	}
	return r.value, nil
}

func (r *rpc) complete(v string) {
	threads.Lock(&r.mu, func() {
		r.done = true
		r.value = v
	})
	r.reply.Signal()
}

// withTimeout runs call in a worker thread and alerts it if the deadline
// passes — the timer knows nothing about the condition variable the worker
// is blocked on; it only holds the thread handle.
//
// The delicate part is the epilogue. When the call completes first,
// timer.Stop races the firing: Stop() == false means the AfterFunc ran (or
// is running) and its Alert targets the worker. Stopping the timer does
// not retract that alert, so the worker itself must consume it with
// TestAlert before doing anything else alertable — otherwise the stale bit
// ends the worker's next AlertWait with a timeout that never happened.
// This is the discipline the deadline variants (awaitDeadline above)
// implement by construction; do it manually only when, as here, the timer
// and the blocked thread are deliberately decoupled.
func withTimeout(d time.Duration, call func() (string, error)) (string, error) {
	type outcome struct {
		v   string
		err error
	}
	results := make(chan outcome, 1)
	mustDrain := make(chan bool)
	worker := threads.ForkNamed("rpc-worker", func() {
		v, err := call()
		results <- outcome{v, err}
		// Drain epilogue, on the worker because the alert is ours. If the
		// timer fired but the call still returned normally, the alert is
		// (or is about to be) pending here; spin it out. If the call
		// returned Alerted, the wait itself consumed the fire.
		if <-mustDrain && !errors.Is(err, threads.Alerted) {
			for !threads.TestAlert() {
				// The fire is in flight: the AfterFunc goroutine holds our
				// handle and its Alert is about to land.
			}
		}
	})
	timer := time.AfterFunc(d, func() { defer threads.Detach(); threads.Alert(worker) })
	res := <-results
	mustDrain <- !timer.Stop()
	threads.Join(worker)
	return res.v, res.err
}

func main() {
	// Case 1: the reply arrives in time.
	fast := &rpc{}
	go func() {
		// Raw goroutine using the primitives: detach the adopted Thread on
		// exit (complete's Acquire/Signal adopt it under checking/tracing).
		defer threads.Detach()
		time.Sleep(10 * time.Millisecond)
		fast.complete("pong")
	}()
	v, err := withTimeout(5*time.Second, fast.await)
	fmt.Printf("fast call: value=%q err=%v\n", v, err)

	// Case 2: the reply never arrives; the timeout alert unblocks the
	// worker, which returns threads.Alerted.
	slow := &rpc{}
	v, err = withTimeout(30*time.Millisecond, slow.await)
	fmt.Printf("slow call: value=%q err=%v (timed out=%v)\n",
		v, err, errors.Is(err, threads.Alerted))

	// Case 2, deadline form: the same timeout without any timer plumbing —
	// the wait carries the deadline and cleans up after itself.
	stuck := &rpc{}
	v, err = withTimeout(5*time.Second, func() (string, error) {
		return stuck.awaitDeadline(time.Now().Add(30 * time.Millisecond))
	})
	fmt.Printf("deadline call: value=%q err=%v (deadline exceeded=%v)\n",
		v, err, errors.Is(err, threads.DeadlineExceeded))

	// Case 3: an abort requested while the worker is computing, observed
	// via TestAlert at a cancellation point.
	worker := threads.ForkNamed("cruncher", func() {
		for i := 0; ; i++ {
			if threads.TestAlert() {
				fmt.Printf("cruncher aborted politely at iteration %d\n", i)
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
	time.Sleep(20 * time.Millisecond)
	threads.Alert(worker)
	threads.Join(worker)
}
