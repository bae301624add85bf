package threads

import (
	"context"
	"errors"
	"sync/atomic"

	"threads/internal/core"
)

// DeadlineExceeded is returned by the deadline variants — AlertWaitDeadline,
// AlertPDeadline and AcquireDeadline — when the wait ended because its
// deadline fired. It matches context.DeadlineExceeded under errors.Is.
//
// Each deadline variant that can block arms its thread's runtime timer,
// which delivers the deadline by Alert, and every exit path, a panic
// included, stops the timer or awaits its fire and drains a late alert, so
// a deadline that fires after the wait is satisfied can never poison a
// later wait — the stale-alert race of the hand-rolled time.AfterFunc +
// Alert + timer.Stop pattern is fixed by construction. See the Alert
// documentation for the drain obligation the hand-rolled pattern carries.
var DeadlineExceeded = core.DeadlineExceeded

// AlertOnDone arranges for t to be alerted when ctx is done, bridging
// context-style cancellation into the paper's alerting world. The returned
// stop ends the arrangement and reports whether the alert was delivered
// (false means delivery was prevented and no drain is needed).
//
// The intended shape has the guarded thread itself call stop on every exit
// path, like the deadline variants do internally:
//
//	stop := threads.AlertOnDone(ctx, threads.Self())
//	err := c.AlertWait(&m)
//	if stop() && errors.Is(err, threads.Alerted) {
//	    err = ctx.Err() // the context, not a user Alert, ended the wait
//	}
//
// stop uses the deadline variants' handshake: when context.AfterFunc's own
// stop fails, the callback has started, and stop waits for the callback's
// token, which it sends after its Alert. When stop is called by t itself it
// also drains a delivered-but-unconsumed alert, so a context that fires
// after the wait is satisfied cannot poison t's next alertable wait. Called
// from any other thread, stop cannot drain (TestAlert consumes only the
// caller's own alert); the true return then tells the caller t may still
// have the alert pending. Only the first call of stop can report true. As
// with any consumer of the single-bit alerts set, a drain may also consume
// a user Alert that merged with the context's — exactly as if t had called
// TestAlert itself.
func AlertOnDone(ctx context.Context, t *Thread) (stop func() (fired bool)) {
	fired := make(chan struct{}, 1)
	inner := context.AfterFunc(ctx, func() {
		core.Alert(t)
		// Traced, Alert adopted this goroutine to stamp its event.
		core.Detach()
		fired <- struct{}{}
	})
	var stopped atomic.Bool
	return func() bool {
		if stopped.Swap(true) || inner() {
			return false // stop already ran, or the callback never will
		}
		<-fired
		if core.Self() == t {
			_ = core.TestAlert() // the drain: a stale context alert is consumed here by design
		}
		return true
	}
}

// WithContext runs body — typically one alertable wait, or a loop of them —
// with the calling thread alerted when ctx is done, and maps the outcome:
// an Alerted return caused by the context becomes ctx.Err()
// (context.Canceled or context.DeadlineExceeded), while a genuine user
// Alert passes through unchanged. A context already done returns its error
// without running body.
//
//	err := threads.WithContext(ctx, func() error {
//	    return c.AlertWait(&m)
//	})
//
// The arrangement is stopped and drained on every return path, a panic in
// body included, so a context firing after body completes never poisons a
// later wait.
func WithContext(ctx context.Context, body func() error) (err error) {
	if err := ctx.Err(); err != nil {
		return err
	}
	stop := AlertOnDone(ctx, core.Self())
	defer func() {
		if stop() && errors.Is(err, Alerted) {
			err = ctx.Err()
		}
	}()
	return body()
}
