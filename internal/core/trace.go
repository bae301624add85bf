package core

import (
	"sync/atomic"
)

// Runtime conformance tracing (experiment E9, extended from the simulator to
// this implementation). When enabled, every operation records one TraceRecord
// at its linearization point, stamped with a value from a single global
// atomic sequence counter. Records land in sharded, cache-line-padded ring
// buffers; internal/trace merges the shards by stamp and replays the result
// through the specification's state machine.
//
// Cost model: disabled, tracing is one bit of the instrumentation word that
// every operation reads anyway (gate.go). Enabled, every record is a plain
// struct store into a preallocated ring — no allocation per event.
//
// # The stamping scheme (the fast-path ordering hazard)
//
// A stamp taken *after* a linearization instruction can invert with a
// concurrent operation on the same object: Release stores the cleared lock
// word, Acquire's CAS wins on it, Acquire draws stamp 5, Release draws stamp
// 6 — and the merged trace replays an Acquire of a held mutex. Symmetrically,
// a stamp drawn *before* the instruction can be overtaken (two concurrent V's
// draw 5 and 6; the 6 lands first; a P slips between them and the trace shows
// its successor P taking an unavailable semaphore).
//
// The scheme used here makes the stamp and the transition one atomic step:
//
//   - The gate's lock word is 64 bits: bit 0 is the lock bit, bit 1 the
//     mutex's priority-inheritance setting (every transition carries it
//     through), and bits 2..63 carry the stamp of the transition that
//     produced the current value.
//     Every traced transition is load word → draw stamp → CAS(old, new).
//     A successful CAS certifies that no other transition touched the word
//     between the load (hence the draw) and the effect, so for any two
//     successful transitions on one gate, stamp order equals CAS order.
//     Stamps never repeat, so the CAS is ABA-proof while tracing. The stamp
//     is therefore taken at — not after — the winning CAS, in the sense that
//     the CAS fails unless the stamp is still fresh.
//
//   - Condition events (Enqueue's commitment point, Signal/Broadcast's
//     eventcount advance) draw their stamps under the condition's Nub spin
//     lock, which already serializes exactly those transitions. Wait draws
//     its Enqueue stamp under the Nub lock at the eventcount read — the
//     commitment after which no Signal can be missed — and embeds that stamp
//     in the mutex word when it releases the mutex (Enqueue subsumes the
//     release; no separate Release event is emitted), so any later Acquire
//     of the mutex outranks the Enqueue.
//
//   - Alert-set events (Alert, TestAlert, and the Alerted returns of
//     AlertWait/AlertP, which delete SELF from alerts) draw their stamps
//     under the target thread's alertLock, which serializes every access to
//     that thread's membership bit.
//
// Cross-domain order needs no extra machinery: if operation A's effect is
// observed by operation B (a CAS reading a store, a flag read after a store
// under a lock), then A drew its stamp before its effect completed and B drew
// its stamp after observing it, and a single fetch-add counter allocates in
// real-time order. TestTraceStampMutexOrder and TestTraceStampSemaphoreOrder
// exercise the two gate-side races directly.
//
// Enable/disable transitions must happen while the primitives are quiesced
// (no operation in flight); a mid-operation flip loses that operation's
// events, though it cannot corrupt the primitives themselves.

// TraceKind discriminates TraceRecord events. The values mirror the
// specification's atomic procedures and actions; internal/trace maps them
// onto spec.Action values.
type TraceKind uint8

const (
	TraceNone              TraceKind = iota
	TraceAcquire                     // Obj = mutex
	TraceRelease                     // Obj = mutex
	TraceEnqueue                     // Obj = mutex, Obj2 = condition
	TraceResume                      // Obj = mutex, Obj2 = condition
	TraceSignal                      // Obj = condition
	TraceBroadcast                   // Obj = condition
	TraceP                           // Obj = semaphore
	TraceV                           // Obj = semaphore
	TraceAlert                       // Obj2 = target thread
	TraceTestAlert                   // Result = returned value
	TraceAlertPReturn                // Obj = semaphore
	TraceAlertPRaise                 // Obj = semaphore
	TraceAlertResumeReturn           // Obj = mutex, Obj2 = condition
	TraceAlertResumeRaise            // Obj = mutex, Obj2 = condition
	TracePriBoost                    // TID = boosted thread, Obj = new effective priority, Obj2 = previous
	TracePriRestore                  // TID = restored thread, Obj = new effective priority, Obj2 = previous
)

// TraceRecord is one linearized action. TID is the executing thread's ID
// (the specification's SELF); Obj and Obj2 identify the primitives involved
// (see the TraceKind comments); stamps from the global counter are unique
// but not dense — failed CAS attempts discard their stamps.
type TraceRecord struct {
	Seq    uint64
	TID    uint64
	Obj    uint64
	Obj2   uint64
	Kind   TraceKind
	Result bool
}

// traceCtx carries the event a gate transition should emit at its winning
// CAS. A zero traceCtx (Kind == TraceNone) means tracing is off for this
// operation — the gate then uses the untraced single-CAS fast path.
type traceCtx struct {
	kind TraceKind
	tid  uint64
	obj2 uint64
}

var (
	// traceSeq is the global stamp counter. Stamps fit in 62 bits so they
	// can share the gate word with the lock and PI bits.
	traceSeq atomic.Uint64
	// traceObjIDs allocates identities for traced primitives, lazily on
	// first event. IDs are dense-ish and shared across mutexes, semaphores
	// and conditions (distinct objects never collide).
	traceObjIDs atomic.Uint64
	// traceShards holds the per-CPU rings; nil until StartTracing.
	traceShards []traceShard
	// traceRingMask is the per-shard capacity minus one (capacity is a
	// power of two).
	traceRingMask uint64
)

// traceShard is one padded ring. pos counts every record ever written to
// this shard; the low bits index the ring, so pos > len(buf) means the ring
// wrapped and oldest records were overwritten.
type traceShard struct {
	pos atomic.Uint64
	buf []TraceRecord
	_   [cacheLineSize - 8 - 24]byte
}

// StartTracing allocates the sharded rings (one per statistics shard, each
// holding perShardCap records rounded up to a power of two) and enables
// recording. It must be called while the primitives are quiesced. Any
// previously collected shards are discarded.
func StartTracing(perShardCap int) {
	if perShardCap < 1 {
		perShardCap = 1
	}
	n := 1
	for n < perShardCap {
		n <<= 1
	}
	traceShards = make([]traceShard, len(statShards))
	for i := range traceShards {
		traceShards[i].buf = make([]TraceRecord, n)
	}
	traceRingMask = uint64(n - 1)
	setInstr(instrTrace, true)
}

// StopTracing disables recording. Records already written remain available
// to CollectTrace. Must be called while the primitives are quiesced.
func StopTracing() { setInstr(instrTrace, false) }

// CollectTrace drains the shards: it returns one slice per shard in write
// order, plus the count of records lost to ring wrap-around (a conformance
// run requires zero — grow perShardCap or collect more often). Shard
// positions reset, so episodic collection composes: run, quiesce, collect,
// feed, repeat, with the stamp counter still increasing across episodes.
// The caller must quiesce the primitives first; within a shard, records are
// nearly stamp-sorted (two operations can draw stamps and write to the same
// shard in opposite orders), which is why internal/trace re-sorts on merge.
func CollectTrace() (shards [][]TraceRecord, dropped uint64) {
	for i := range traceShards {
		sh := &traceShards[i]
		pos := sh.pos.Load()
		n := pos
		if n > uint64(len(sh.buf)) {
			dropped += n - uint64(len(sh.buf))
			n = uint64(len(sh.buf))
		}
		out := make([]TraceRecord, n)
		copy(out, sh.buf[:n])
		shards = append(shards, out)
		sh.pos.Store(0)
	}
	return shards, dropped
}

// nextTraceSeq draws a fresh stamp.
func nextTraceSeq() uint64 { return traceSeq.Add(1) }

// traceEmit records one event. Allocation-free: a struct store into the
// caller's shard ring.
func traceEmit(seq uint64, kind TraceKind, tid, obj, obj2 uint64, result bool) {
	if traceShards == nil {
		return
	}
	sh := &traceShards[statShardIdx()]
	i := sh.pos.Add(1) - 1
	sh.buf[i&traceRingMask] = TraceRecord{
		Seq: seq, TID: tid, Obj: obj, Obj2: obj2, Kind: kind, Result: result,
	}
}

// traceObjID returns the object identity stored in id, assigning one on
// first use.
func traceObjID(id *atomic.Uint64) uint64 {
	v := id.Load()
	for v == 0 {
		id.CompareAndSwap(0, traceObjIDs.Add(1))
		v = id.Load()
	}
	return v
}

// traceCtxFor builds the traceCtx of a kind event under instrumentation
// mode: zero unless tracing, else carrying t's id, or SELF's if t is nil
// (Self, which untraced paths never pay, can cost a runtime.Stack parse).
func traceCtxFor(mode uint32, kind TraceKind, t *Thread) traceCtx {
	if mode&instrTrace == 0 {
		return traceCtx{}
	}
	if t == nil {
		t = Self()
	}
	return traceCtx{kind: kind, tid: t.id}
}
