package core

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"threads/internal/spinlock"
)

// Thread identifies a thread of control to the synchronization primitives.
// The specification's SELF is the Thread of the calling goroutine, and the
// global "alerts : SET OF Thread" is represented by one alerted bit per
// Thread.
//
// Threads are created with Fork. A goroutine that was not created by Fork
// (the main goroutine, for example) is adopted on its first call to Self,
// TestAlert, AlertWait or AlertP, and stays registered until it calls
// Detach or, on amd64 and arm64, until the runtime reuses its g for a later
// goroutine that adopts (see the registry comment).
type Thread struct {
	id   uint64
	name string // as given to ForkNamed; "" means the default (see Name)

	// gid is an adopted thread's goroutine id, which Self re-checks on
	// every registry hit (see the registry comment); zero for Fork'd
	// threads, whose entries need no check.
	gid uint64

	// alerted is this thread's membership in the specification's global
	// alerts set: Alert inserts, TestAlert and the Alerted returns of
	// AlertWait/AlertP delete.
	alerted atomic.Bool

	// alertLock protects alertW. Alert reads alertW under it to find a
	// blocked alertable waiter to wake; AlertWait/AlertP register and
	// unregister their waiter under it.
	alertLock spinlock.Lock
	alertW    *waiter //threads:guardedby alertLock

	// parkW is the thread's cached waiter, reused by every blocking
	// episode so the slow paths allocate nothing per park. Only threads
	// created by Fork get one; adopted goroutines may be transient, so
	// their episodes draw from the shared waiter pool instead.
	parkW *waiter

	// done is closed when a forked thread's function returns. Join
	// receives on it. Adopted threads have a nil done channel.
	done chan struct{}

	// timerE is the thread's deadline timer, created by its first deadline
	// wait and reused by every later one, so arming allocates nothing in
	// steady state. Only the owning thread touches the field (deadline.go).
	timerE *deadlineTimer

	// basePri is the thread's assigned scheduling priority (ForkPri /
	// SetPriority; larger is more urgent, default 0). effPri caches the
	// effective priority — the max of basePri and every live mutex
	// donation — which the park paths read to stamp waiters.
	basePri atomic.Int32
	effPri  atomic.Int32

	// donLock guards the donation table and serializes every effective-
	// priority transition of this thread, so the PriBoost/PriRestore
	// conformance stamps drawn under it are totally ordered per thread.
	// Lock order: a gate's nub spin lock may be held when donLock is
	// taken (gate.piDonate); donLock acquires nothing, so no cycle.
	donLock   spinlock.Lock
	donations [maxDonations]donation //threads:guardedby donLock
}

// donation records one priority-inheritance boost: while this thread holds
// the mutex whose gate is g, it runs at least at pri.
type donation struct {
	g   *gate
	pri int32
}

// maxDonations bounds the donation table. The table lives inline in the
// Thread and is scanned under spin locks, where the Nub discipline forbids
// allocation — so it cannot grow. A thread holding more than maxDonations
// PI mutexes with boosting waiters drops the overflow donations: a missed
// boost only weakens the scheduling heuristic, never correctness.
const maxDonations = 4

// prioInUse flips (permanently) when any thread is given a nonzero
// priority. Until then the park paths skip priority capture entirely, so
// programs that never touch priorities pay one atomic load per park.
var prioInUse atomic.Bool

// Priority returns the thread's assigned (base) priority.
func (t *Thread) Priority() int { return int(t.basePri.Load()) }

// EffectivePriority returns the thread's current effective priority: its
// base priority or the highest live priority-inheritance donation,
// whichever is larger (advisory).
func (t *Thread) EffectivePriority() int { return int(t.effPri.Load()) }

// SetPriority assigns the thread's base priority. Larger values are more
// urgent; the default is 0. The new priority governs wakeup ordering for
// waits that park after the change (queued waiters keep the priority they
// were enqueued with, matching the paper's Nub, which orders its ready
// pool by the priority in effect when the thread was made ready).
//
// SetPriority must not be called while holding a spin lock (threadsvet's
// prioritydiscipline analyzer enforces this): it takes the target's
// donation lock and may emit a conformance stamp.
func (t *Thread) SetPriority(pri int) {
	if pri != 0 {
		prioInUse.Store(true)
	}
	t.donLock.Lock()
	t.basePri.Store(int32(pri))
	t.recalcPriLocked()
	t.donLock.Unlock()
}

// donate records that t (a mutex holder) inherits at least pri while it
// holds the mutex whose gate is g. Called with g's nub spin lock held, so
// it allocates nothing and calls nothing that blocks.
func (t *Thread) donate(g *gate, pri int32) {
	t.donLock.Lock()
	slot := -1
	for i := range t.donations {
		if t.donations[i].g == g {
			if t.donations[i].pri >= pri {
				t.donLock.Unlock()
				return
			}
			slot = i
			break
		}
		if slot < 0 && t.donations[i].g == nil {
			slot = i
		}
	}
	if slot < 0 {
		// Table full: drop the boost (heuristic miss, see maxDonations).
		t.donLock.Unlock()
		return
	}
	t.donations[slot] = donation{g: g, pri: pri}
	t.recalcPriLocked()
	t.donLock.Unlock()
}

// undonate removes the donation keyed by g (the holder released that
// mutex) and restores the effective priority.
func (t *Thread) undonate(g *gate) {
	t.donLock.Lock()
	for i := range t.donations {
		if t.donations[i].g == g {
			t.donations[i] = donation{}
			t.recalcPriLocked()
			break
		}
	}
	t.donLock.Unlock()
}

// recalcPriLocked recomputes the effective priority and, when it changed,
// counts the transition and emits its conformance stamp. Called with
// donLock held (possibly under a gate's nub spin lock): no allocation, no
// blocking, no indirect calls.
func (t *Thread) recalcPriLocked() {
	eff := t.basePri.Load()
	for i := range t.donations {
		if t.donations[i].g != nil && t.donations[i].pri > eff {
			eff = t.donations[i].pri
		}
	}
	old := t.effPri.Load()
	if eff == old {
		return
	}
	t.effPri.Store(eff)
	kind := TracePriRestore
	stat := statPriRestore
	if eff > old {
		kind = TracePriBoost
		stat = statPriBoost
	}
	statInc(stat)
	if tracing() {
		// The stamp is drawn and recorded under donLock: per-thread
		// priority transitions are totally ordered, which is exactly the
		// REQUIRES the spec face checks (a boost strictly raises, a
		// restore strictly lowers).
		traceEmit(nextTraceSeq(), kind, t.id, uint64(int64(eff)), uint64(int64(old)), false)
	}
}

// ID returns a process-unique identifier for the thread.
func (t *Thread) ID() uint64 { return t.id }

// Name returns the name given to ForkNamed, else "thread-<id>" for a
// Fork'd thread and "adopted-<id>" for an adopted one. The default is
// formatted on demand, so Fork and adoption build no string.
func (t *Thread) Name() string {
	switch {
	case t.name != "":
		return t.name
	case t.done == nil:
		return "adopted-" + strconv.FormatUint(t.id, 10)
	}
	return "thread-" + strconv.FormatUint(t.id, 10)
}

// String implements fmt.Stringer.
func (t *Thread) String() string {
	if t == nil {
		return "NIL"
	}
	return t.Name()
}

var threadIDs atomic.Uint64

// ---------------------------------------------------------------------------
// Goroutine → Thread registry.
//
// The primitives need SELF without threading a handle through every call.
// A sharded map guarded by spin locks takes the calling goroutine's key
// (gkey: the address of its runtime g on amd64 and arm64, its goroutine id
// elsewhere) to its Thread, so the core depends on nothing heavier than the
// primitives it itself implements.
//
// Only a goroutine writes its own key. A Fork'd thread registers from its
// goroutine before fn runs and unregisters before the goroutine exits, so a
// hit on a Fork'd entry is always the caller's: one map lookup, no stack
// parse. An adopted goroutine's exit cannot be observed, and the runtime
// hands an exited goroutine's g to a later goroutine. An adopted entry
// therefore keeps its goroutine id, and Self re-checks it on every hit; a
// mismatch means the g was reused, and the newcomer is adopted afresh over
// the stale entry. That overwrite also bounds the registry when adopted
// goroutines exit without Detach: a stale entry lasts only until its g is
// reused. Where the key is the goroutine id, which the runtime never
// reuses, such an entry lasts for the life of the process.
// ---------------------------------------------------------------------------

const (
	registryShardBits = 6
	registryShards    = 1 << registryShardBits
)

type registryShard struct {
	lock spinlock.Lock // 4 bytes, padded to 8 before the map pointer
	m    map[uint64]*Thread
	_    [cacheLineSize - 16]byte // round to 64: keep shards on separate cache lines
}

var registry [registryShards]*registryShard

func init() {
	for i := range registry {
		registry[i] = &registryShard{m: make(map[uint64]*Thread)}
	}
}

// shardFor picks a key's shard from the top bits of a Fibonacci hash: the
// runtime allocates every g from one size class, so g addresses share
// their low bits.
func shardFor(key uint64) *registryShard {
	return registry[(key*0x9E3779B97F4A7C15)>>(64-registryShardBits)]
}

func registerThread(key uint64, t *Thread) {
	s := shardFor(key)
	s.lock.Lock()
	s.m[key] = t
	s.lock.Unlock()
}

func unregisterThread(key uint64) {
	s := shardFor(key)
	s.lock.Lock()
	delete(s.m, key)
	s.lock.Unlock()
}

func lookupThread(key uint64) *Thread {
	s := shardFor(key)
	s.lock.Lock()
	t := s.m[key]
	s.lock.Unlock()
	return t
}

// goidBufPool recycles the header buffers goid hands to runtime.Stack.
// runtime.Stack stores its argument in the g (writebuf), so a local array
// would escape and cost one heap allocation per call — pooling keeps the
// identity check allocation-free in steady state.
var goidBufPool = sync.Pool{New: func() any { return new([64]byte) }}

// goid returns the current goroutine's id, parsed from the
// "goroutine N [state]:" header runtime.Stack emits.
func goid() uint64 {
	buf := goidBufPool.Get().(*[64]byte)
	n := runtime.Stack(buf[:], false)
	// Skip "goroutine ".
	const prefix = len("goroutine ")
	var id uint64
	for i := prefix; i < n; i++ {
		c := buf[i]
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	goidBufPool.Put(buf)
	return id
}

// Self returns the Thread executing the caller, adopting the goroutine into
// the registry if it was not created by Fork.
func Self() *Thread {
	key := gkey()
	t := lookupThread(key)
	if t != nil && t.done != nil {
		return t // Fork'd: the entry lives exactly as long as its goroutine
	}
	gid := key
	if !keyIsGoid {
		gid = goid()
	}
	if t != nil && t.gid == gid {
		return t
	}
	t = &Thread{id: threadIDs.Add(1), gid: gid}
	registerThread(key, t)
	return t
}

// Fork runs fn as a new thread and returns its handle immediately: the new
// thread may not have run yet, but Alert and Join on the handle are valid
// at once. The thread registers itself before fn runs, so SELF on it is
// its handle; its registry entry is removed when fn returns, and then Join
// unblocks.
func Fork(fn func()) *Thread {
	return forkNamedPri("", 0, fn)
}

// ForkNamed is Fork with an explicit thread name (used in traces and
// diagnostics).
func ForkNamed(name string, fn func()) *Thread {
	return forkNamedPri(name, 0, fn)
}

// ForkPri is Fork with an initial base priority, installed before the
// thread's function runs so its very first wait is ordered correctly.
func ForkPri(pri int, fn func()) *Thread {
	return forkNamedPri("", pri, fn)
}

// ForkNamedPri combines ForkNamed and ForkPri.
func ForkNamedPri(name string, pri int, fn func()) *Thread {
	return forkNamedPri(name, pri, fn)
}

func forkNamedPri(name string, pri int, fn func()) *Thread {
	t := &Thread{id: threadIDs.Add(1), name: name, parkW: newWaiter(), done: make(chan struct{})}
	if pri != 0 {
		prioInUse.Store(true)
		t.basePri.Store(int32(pri))
		t.effPri.Store(int32(pri))
		if tracing() {
			// The thread is not yet visible to donors, so this initial
			// transition is trivially ordered before any later one.
			kind := TracePriBoost
			if pri < 0 {
				kind = TracePriRestore
			}
			traceEmit(nextTraceSeq(), kind, t.id, uint64(int64(pri)), 0, false)
		}
	}
	go func() {
		key := gkey()
		registerThread(key, t)
		defer func() {
			unregisterThread(key)
			close(t.done)
		}()
		fn()
	}()
	return t
}

// Join blocks until the forked thread's function has returned. Join on an
// adopted thread panics: the package did not create it and cannot observe
// its termination.
func Join(t *Thread) {
	if t.done == nil {
		panic("core: Join on a thread not created by Fork")
	}
	<-t.done
}

// Detach removes the calling goroutine's registry entry if the goroutine
// was adopted, freeing its Thread before the goroutine exits. A Fork'd
// thread's entry is left alone: it goes when the thread's function returns,
// and removing it early would make the thread's next Self adopt a second
// Thread that Alert never reaches. An adopted entry that is not detached is
// reclaimed when the runtime reuses the goroutine's g for a later goroutine
// that adopts (amd64 and arm64); elsewhere it lasts for the life of the
// process.
func Detach() {
	key := gkey()
	if t := lookupThread(key); t != nil && t.done == nil {
		// Adopted, and either the caller's own entry or one left on the
		// same g by an exited goroutine: both are the caller's to free.
		unregisterThread(key)
	}
}
