package core

import (
	"math"
	"sync/atomic"
	"time"

	"threads/internal/spinlock"
)

// The timer wheel delivers deadlines to blocked threads with Alert — the
// paper's only cancellation mechanism ("typically to implement things such
// as timeouts and aborts"). The deadline variants (AlertWaitDeadline,
// AlertPDeadline, AcquireDeadline) arm an entry before blocking and
// cancel-and-drain it on every exit path, so the classic stale-alert race —
// a deadline that fires after the wait is satisfied poisoning the thread's
// NEXT alertable wait — cannot happen by construction; see deadline.go.
//
// Shape: a hashed wheel of wheelBuckets spin-locked intrusive lists, keyed
// by deadline time; one lazily-started runner goroutine scans the wheel and
// fires expired entries. Arming is O(1) under one bucket lock; the runner
// wakes only for the earliest pending deadline (or a kick when a new entry
// lowers it).

const (
	// wheelBuckets is the hash width. Entries for the same tick land in
	// the same bucket; the runner scans all buckets per wake, so the width
	// only bounds lock contention between concurrent arms, not scan cost.
	wheelBuckets = 64
	// wheelTick is the hashing granularity: deadlines within the same
	// tick share a bucket.
	wheelTick = int64(time.Millisecond)
)

// timerEntry states. An entry is owned by its thread: only the owner arms
// and cancels it, and each Thread reuses one cached entry (Thread.timerE),
// so arming allocates nothing in steady state.
const (
	timerIdle uint32 = iota
	// timerArmed: linked into a bucket, waiting to fire or be cancelled.
	timerArmed
	// timerFiring: the runner won the CAS from armed and is delivering the
	// Alert. A cancel arriving now spins until timerFired — briefly, the
	// firing window is one Alert call — so the owner never races the
	// delivery.
	timerFiring
	// timerFired: the Alert has been delivered. The runner never touches
	// the entry again after this store, so the owner may reuse it.
	timerFired
	// timerCancelled: the owner won the CAS from armed; the entry never
	// fired and never will.
	timerCancelled
)

// timerEntry is one armed deadline. linked, next and prev are guarded by
// the owning bucket's lock; state carries the fire/cancel race; when and t
// are written by the owner before publication and read-only afterwards.
type timerEntry struct {
	state  atomic.Uint32
	t      *Thread
	when   int64 // deadline, ns (time.Time.UnixNano)
	linked bool
	next   *timerEntry
	prev   *timerEntry
	bucket *wheelBucket
}

// wheelBucket is one spin-locked intrusive list, padded so concurrent arms
// on neighbouring buckets do not share a cache line.
type wheelBucket struct {
	lock spinlock.Lock
	head *timerEntry //threads:guardedby lock
	_    [cacheLineSize - 16]byte
}

func (b *wheelBucket) push(e *timerEntry) {
	e.bucket = b
	e.linked = true
	e.prev = nil
	e.next = b.head
	if b.head != nil {
		b.head.prev = e
	}
	b.head = e
}

// unlink removes e if it is still linked; callers hold b.lock.
func (b *wheelBucket) unlink(e *timerEntry) {
	if !e.linked {
		return
	}
	e.linked = false
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		b.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	e.next, e.prev = nil, nil
}

// timerWheel is the package-global wheel. earliest is the wake deadline the
// runner is committed to honouring: an arm that lowers it must kick the
// runner. The missed-kick window is closed Dekker-style — the runner stores
// earliest = +inf BEFORE scanning the buckets, and an arm publishes its
// entry BEFORE reading earliest, so every new entry is either seen by the
// scan or observes a value of earliest it can lower.
type timerWheel struct {
	buckets  [wheelBuckets]wheelBucket
	earliest atomic.Int64
	kick     chan struct{}
	started  atomic.Bool
}

var wheel = func() *timerWheel {
	tw := &timerWheel{kick: make(chan struct{}, 1)}
	tw.earliest.Store(math.MaxInt64)
	return tw
}()

// armDeadline links a timer entry for t that will Alert(t) at deadline,
// reusing the thread's cached entry. Only t itself may call this, and only
// with the previous episode finished (cancelAndDrain returned).
func (t *Thread) armDeadline(deadline time.Time) *timerEntry {
	e := t.timerE
	if e == nil {
		e = &timerEntry{t: t}
		t.timerE = e
	}
	e.when = deadline.UnixNano()
	e.state.Store(timerArmed)
	statInc(statTimerArm)
	wheel.arm(e)
	return e
}

func (tw *timerWheel) arm(e *timerEntry) {
	b := &tw.buckets[uint64(e.when/wheelTick)%wheelBuckets]
	b.lock.Lock()
	b.push(e)
	b.lock.Unlock()
	tw.ensureRunner()
	// Publish-then-read (the arm side of the Dekker pair): lower earliest
	// if this entry is sooner than the runner's committed wake, and kick
	// it awake to honour the new bound.
	for {
		cur := tw.earliest.Load()
		if e.when >= cur {
			return
		}
		if tw.earliest.CompareAndSwap(cur, e.when) {
			select {
			case tw.kick <- struct{}{}:
			default:
			}
			return
		}
	}
}

func (tw *timerWheel) ensureRunner() {
	if tw.started.Load() {
		return
	}
	if tw.started.CompareAndSwap(false, true) {
		go tw.run()
	}
}

// run is the wheel's runner: scan, fire, sleep until the earliest pending
// deadline. The goroutine is started on first use and runs for the life of
// the process (it is idle — one hour per wake — when no deadlines are
// armed, like the runtime's own timer machinery).
func (tw *timerWheel) run() {
	timer := time.NewTimer(time.Hour)
	for {
		// Store-then-scan (the runner side of the Dekker pair): any entry
		// armed after this store either is seen by the scan below or reads
		// an earliest it can lower (and kicks).
		tw.earliest.Store(math.MaxInt64)
		now := time.Now().UnixNano()
		next := int64(math.MaxInt64)
		var expired *timerEntry
		for i := range tw.buckets {
			b := &tw.buckets[i]
			b.lock.Lock()
			for e := b.head; e != nil; {
				n := e.next
				if e.when <= now {
					b.unlink(e)
					// Chain expired entries through next for firing
					// outside the lock; unlink cleared the pointers and
					// a cancelled entry skips its own unlink once
					// linked is false.
					e.next = expired
					expired = e
				} else if e.when < next {
					next = e.when
				}
				e = n
			}
			b.lock.Unlock()
		}
		for e := expired; e != nil; {
			n := e.next
			e.next = nil
			if e.state.CompareAndSwap(timerArmed, timerFiring) {
				Alert(e.t)
				statInc(statTimerFire)
				// The final runner access: after this store the owner's
				// cancelAndDrain may reuse the entry.
				e.state.Store(timerFired)
			}
			e = n
		}
		for {
			cur := tw.earliest.Load()
			if next >= cur || tw.earliest.CompareAndSwap(cur, next) {
				break
			}
		}
		wake := tw.earliest.Load()
		d := time.Hour
		if wake != math.MaxInt64 {
			d = time.Duration(wake - time.Now().UnixNano())
			if d <= 0 {
				continue
			}
		}
		timer.Reset(d)
		select {
		case <-timer.C:
		case <-tw.kick:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}
	}
}

// cancelAndDrain ends an armed episode and reports whether the deadline
// fired. Exactly one of two things is true on return:
//
//   - fired == false: the cancel won; the entry never alerted and never
//     will (the runner observed timerCancelled, or never saw the entry).
//   - fired == true: the Alert was delivered before return. Whether it is
//     still pending on the thread depends on whether the wait consumed it;
//     the caller drains it if not (see deadline.go).
//
// Only the owning thread calls this, once per armDeadline.
func (e *timerEntry) cancelAndDrain() (fired bool) {
	if e.state.CompareAndSwap(timerArmed, timerCancelled) {
		b := e.bucket
		b.lock.Lock()
		b.unlink(e)
		b.lock.Unlock()
		statInc(statTimerCancel)
		return false
	}
	// The runner won the race: it is between its CAS to timerFiring and
	// its store of timerFired, delivering the Alert. Wait it out so the
	// delivery cannot land after this episode's drain.
	for e.state.Load() != timerFired {
		spinlock.Pause(spinPauseIters)
	}
	return true
}
