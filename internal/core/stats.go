package core

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// Stats is a snapshot of the package's contention counters. The paper
// reports that the underlying implementation was reworked "to make it easy
// to collect statistics on contention" without any specification change;
// these counters are that facility. They also drive experiments E2 and E3:
// the fast-path hit rate and the multi-unblock behavior of Signal.
type Stats struct {
	AcquireFast    uint64 // Acquire satisfied by the inline test-and-set
	AcquireSpin    uint64 // Acquire satisfied during the bounded active spin
	AcquireNub     uint64 // Acquire entered the Nub subroutine
	AcquireBackout uint64 // Nub enqueue backed out (lock bit observed clear)
	AcquirePark    uint64 // Acquire descheduled the caller
	ReleaseFast    uint64 // Release found the queue empty
	ReleaseNub     uint64 // Release entered the Nub subroutine
	ReleaseHandoff uint64 // Release handed the mutex directly to a waiter

	PFast    uint64 // P satisfied inline
	PSpin    uint64 // P satisfied during the bounded active spin
	PNub     uint64 // P entered the Nub
	PBackout uint64 // Nub enqueue backed out (lock bit observed clear)
	PPark    uint64 // P descheduled the caller
	VFast    uint64 // V found the queue empty
	VNub     uint64 // V entered the Nub
	VHandoff uint64 // V handed the semaphore directly to a waiter

	WaitCount   uint64 // Wait calls
	WaitSpin    uint64 // Block satisfied during the bounded active spin
	WaitElided  uint64 // Block returned without descheduling (eventcount advanced)
	WaitPark    uint64 // Block descheduled the caller
	SignalFast  uint64 // Signal with no committed waiters: no Nub call
	SignalNub   uint64 // Signal entered the Nub
	SignalWoke  uint64 // Signal dequeued and woke a thread
	SignalMorph uint64 // Signal morphed a waiter onto the mutex queue instead of waking it
	SignalRepop uint64 // Signal re-popped after losing a claim race to Alert
	BcastFast   uint64 // Broadcast with no committed waiters
	BcastNub    uint64 // Broadcast entered the Nub
	BcastWoke   uint64 // threads woken by Broadcast

	Alerts        uint64 // Alert calls
	AlertWakes    uint64 // Alert woke a blocked alertable waiter
	AlertedWait   uint64 // AlertWait returned Alerted
	AlertedP      uint64 // AlertP returned Alerted
	TestAlertTrue uint64 // TestAlert returned true

	TimerArm    uint64 // deadline waits that could block and armed their thread's timer
	TimerFire   uint64 // armed timers that fired (delivered an Alert)
	TimerCancel uint64 // armed timers stopped before firing
	TimerDrain  uint64 // stale timer alerts drained after a satisfied wait

	PriBoost   uint64 // effective-priority raises (inheritance donations, SetPriority up)
	PriRestore uint64 // effective-priority drops (donation removed, SetPriority down)
}

// statID names one counter: the index of its field in Stats viewed as an
// array of uint64, which is also its index in a shard's counter block.
// Deriving each ID from its field's offset means a counter cannot land in
// the wrong Stats field (TestStatsFieldsAreUint64 pins the layout).
type statID int

const (
	statAcquireFast    = statID(unsafe.Offsetof(Stats{}.AcquireFast) / 8)
	statAcquireSpin    = statID(unsafe.Offsetof(Stats{}.AcquireSpin) / 8)
	statAcquireNub     = statID(unsafe.Offsetof(Stats{}.AcquireNub) / 8)
	statAcquireBackout = statID(unsafe.Offsetof(Stats{}.AcquireBackout) / 8)
	statAcquirePark    = statID(unsafe.Offsetof(Stats{}.AcquirePark) / 8)
	statReleaseFast    = statID(unsafe.Offsetof(Stats{}.ReleaseFast) / 8)
	statReleaseNub     = statID(unsafe.Offsetof(Stats{}.ReleaseNub) / 8)
	statReleaseHandoff = statID(unsafe.Offsetof(Stats{}.ReleaseHandoff) / 8)
	statPFast          = statID(unsafe.Offsetof(Stats{}.PFast) / 8)
	statPSpin          = statID(unsafe.Offsetof(Stats{}.PSpin) / 8)
	statPNub           = statID(unsafe.Offsetof(Stats{}.PNub) / 8)
	statPBackout       = statID(unsafe.Offsetof(Stats{}.PBackout) / 8)
	statPPark          = statID(unsafe.Offsetof(Stats{}.PPark) / 8)
	statVFast          = statID(unsafe.Offsetof(Stats{}.VFast) / 8)
	statVNub           = statID(unsafe.Offsetof(Stats{}.VNub) / 8)
	statVHandoff       = statID(unsafe.Offsetof(Stats{}.VHandoff) / 8)
	statWaitCount      = statID(unsafe.Offsetof(Stats{}.WaitCount) / 8)
	statWaitSpin       = statID(unsafe.Offsetof(Stats{}.WaitSpin) / 8)
	statWaitElided     = statID(unsafe.Offsetof(Stats{}.WaitElided) / 8)
	statWaitPark       = statID(unsafe.Offsetof(Stats{}.WaitPark) / 8)
	statSignalFast     = statID(unsafe.Offsetof(Stats{}.SignalFast) / 8)
	statSignalNub      = statID(unsafe.Offsetof(Stats{}.SignalNub) / 8)
	statSignalWoke     = statID(unsafe.Offsetof(Stats{}.SignalWoke) / 8)
	statSignalMorph    = statID(unsafe.Offsetof(Stats{}.SignalMorph) / 8)
	statSignalRepop    = statID(unsafe.Offsetof(Stats{}.SignalRepop) / 8)
	statBcastFast      = statID(unsafe.Offsetof(Stats{}.BcastFast) / 8)
	statBcastNub       = statID(unsafe.Offsetof(Stats{}.BcastNub) / 8)
	statBcastWoke      = statID(unsafe.Offsetof(Stats{}.BcastWoke) / 8)
	statAlerts         = statID(unsafe.Offsetof(Stats{}.Alerts) / 8)
	statAlertWakes     = statID(unsafe.Offsetof(Stats{}.AlertWakes) / 8)
	statAlertedWait    = statID(unsafe.Offsetof(Stats{}.AlertedWait) / 8)
	statAlertedP       = statID(unsafe.Offsetof(Stats{}.AlertedP) / 8)
	statTestAlertTrue  = statID(unsafe.Offsetof(Stats{}.TestAlertTrue) / 8)
	statTimerArm       = statID(unsafe.Offsetof(Stats{}.TimerArm) / 8)
	statTimerFire      = statID(unsafe.Offsetof(Stats{}.TimerFire) / 8)
	statTimerCancel    = statID(unsafe.Offsetof(Stats{}.TimerCancel) / 8)
	statTimerDrain     = statID(unsafe.Offsetof(Stats{}.TimerDrain) / 8)
	statPriBoost       = statID(unsafe.Offsetof(Stats{}.PriBoost) / 8)
	statPriRestore     = statID(unsafe.Offsetof(Stats{}.PriRestore) / 8)
	numStats           = statID(unsafe.Sizeof(Stats{}) / 8)
)

const cacheLineSize = 64

// statShard is one padded block of counters. Its size is rounded up to a
// whole number of cache lines so counters in different shards never share
// a line: with a single global block, enabling statistics made every fast
// path bounce the same lines between processors.
type statShard struct {
	c [numStats]atomic.Uint64
	_ [(cacheLineSize - (numStats*8)%cacheLineSize) % cacheLineSize]byte
}

// statShards holds one counter block per processor's worth of parallelism.
// Sized (power of two) from GOMAXPROCS at init; a thread-identity hash
// picks the shard, so concurrent updaters usually touch distinct lines.
var (
	statShards    []statShard
	statShardMask uintptr
)

func init() {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 64 {
		n <<= 1
	}
	statShards = make([]statShard, n)
	statShardMask = uintptr(n - 1)
}

// EnableStats turns contention statistics on or off and returns the
// previous setting. On, every Mutex and Semaphore operation takes its slow
// path, which counts; off, counting costs nothing past the word's test.
func EnableStats(on bool) bool { return setInstr(instrStats, on) }

// statShardIdx hashes the calling thread's identity to a shard index. The
// hot paths deliberately never compute SELF (recovering the goroutine id
// costs a runtime.Stack call), so the hash input is the next best
// per-thread value: the address of a stack variable. Goroutine stacks are
// distinct multi-kilobyte allocations, so folding the sub-page bits away
// spreads goroutines across shards while staying stable within one
// goroutine. Only the numeric value of the pointer is used.
func statShardIdx() uintptr {
	var marker byte
	p := uintptr(unsafe.Pointer(&marker))
	return ((p >> 10) ^ (p >> 16)) & statShardMask
}

func statAdd(id statID, n uint64) {
	if instr.Load()&instrStats != 0 {
		statShards[statShardIdx()].c[id].Add(n)
	}
}

func statInc(id statID) { statAdd(id, 1) }

// SnapshotStats returns the current counter values, aggregated over all
// shards.
//
// The snapshot is atomic per counter but NOT across counters: each shard
// cell is read with an individual atomic load while updaters may be
// running, so a snapshot taken concurrently with work in flight can
// observe one side of a pairing without the other. Cross-counter
// invariants — SignalWoke <= SignalNub, AcquireFast+AcquireSpin+
// AcquireNub equal to the number of Acquire calls, AlertedWait+AlertedP
// <= AlertWakes+TestAlertTrue-adjusted alert deliveries, and so on — are
// therefore only meaningful when the snapshot is taken at quiescence
// (every worker joined, no call in flight). Tests and experiments that
// assert relationships between counters must quiesce first; a snapshot
// taken mid-run is suitable only for monotone progress monitoring of a
// single counter.
func SnapshotStats() Stats {
	var s Stats
	c := (*[numStats]uint64)(unsafe.Pointer(&s))
	for i := range statShards {
		for id := range c {
			c[id] += statShards[i].c[id].Load()
		}
	}
	return s
}

// ResetStats zeroes all counters.
func ResetStats() {
	for i := range statShards {
		for id := statID(0); id < numStats; id++ {
			statShards[i].c[id].Store(0)
		}
	}
}
