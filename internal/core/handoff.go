package core

import (
	"sync/atomic"
	"time"
)

// Direct hand-off policy. The paper's Release wakes a queued thread and
// lets it retry its test-and-set, so a woken thread races every barging
// acquirer and usually loses to one whose cache already holds the line —
// under sustained contention the queue's head can wait unboundedly (the
// same pathology sync.Mutex calls starvation). Direct hand-off transfers
// the gate to the dequeued waiter without ever clearing the lock bit: no
// barging window, one fewer round trip through the ready pool.
//
// Hand-off is strictly below the specification: an execution with a
// hand-off is indistinguishable from one in which the Release's m' = NIL
// was immediately followed by the waiter's Acquire — exactly the ordering
// the traced two-CAS scheme certifies (gate.releaseHandoff).
//
// The catch is throughput at low contention: a barging acquirer is already
// running, while the hand-off recipient must be rescheduled, so always
// handing off serializes the gate at the park/wake latency. The adaptive
// default therefore mirrors sync.Mutex's starvation mode: barging stays
// allowed until the queue's head has waited handoffStarveNs, then releases
// hand off directly until the backlog drains.

// HandoffMode selects the Release/V hand-off policy.
type HandoffMode int32

const (
	// HandoffAdaptive (the default) hands off only to waiters that have
	// been queued longer than handoffStarveNs; fresh waiters take their
	// chances with the barging race, which is faster when critical
	// sections are short.
	HandoffAdaptive HandoffMode = iota
	// HandoffOff never hands off: the paper's wake-and-retry protocol.
	HandoffOff
	// HandoffAlways hands off on every Release/V with a queued waiter.
	// Tests and conformance runs use it to drive the hand-off paths hard;
	// as a production policy it trades throughput for strict FIFO.
	HandoffAlways
)

// handoffMode holds the current HandoffMode; the zero value is
// HandoffAdaptive.
var handoffMode atomic.Int32

// SetHandoffMode selects the hand-off policy for every Mutex and Semaphore
// in the process and returns the previous one. The policy is consulted per
// release, so it may be changed at any time; conformance tracing
// transitions still require quiescence for their own reasons.
func SetHandoffMode(m HandoffMode) HandoffMode {
	return HandoffMode(handoffMode.Swap(int32(m)))
}

// CurrentHandoffMode reports the hand-off policy in effect.
func CurrentHandoffMode() HandoffMode { return HandoffMode(handoffMode.Load()) }

// handoffStarveNs is the adaptive threshold: a queue head older than this
// switches releases to direct hand-off. 1ms, as in sync.Mutex's
// starvationThresholdNs.
const handoffStarveNs = int64(time.Millisecond)

// handoffEpoch anchors handoffNanos: time.Since carries the monotonic
// clock, so the values never jump with wall-clock adjustments.
var handoffEpoch = time.Now()

// handoffNanos is the coarse monotonic clock behind parkStart. It is
// called only on slow paths that are about to park (and by releaseHandoff
// before taking the Nub lock), never inside a spin-lock critical section.
func handoffNanos() int64 { return int64(time.Since(handoffEpoch)) }
