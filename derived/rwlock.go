package derived

import (
	"sync/atomic"

	"threads"
)

// The state word of an RWLock: readers in the low 32 bits, writers
// (pending or active) above them.
const (
	readerMask = 1<<32 - 1
	writerUnit = 1 << 32
)

// RWLock is a writers-preferring readers-writer lock — the paper's
// motivating example for Broadcast: "releasing a 'writer' lock on a file
// might permit all 'readers' to resume." Readers and writers wait on the
// same condition variable for different predicates, so Signal would be
// incorrect; every state change that could enable anyone uses Broadcast.
//
// Readers enter in the paper's user-code-first shape: with no writer
// counted, RLock and RUnlock are one atomic add each on the state word and
// touch neither mu nor changed. Writers count themselves into the word
// only under mu, so a reader that finds one waits on changed under mu like
// any other waiter, and a reader whose exit leaves a counted writer facing
// no readers wakes it.
type RWLock struct {
	mu      threads.Mutex //threads:guards writing
	changed threads.Condition
	state   atomic.Int64
	writing bool
}

// NewRWLock returns an open lock.
func NewRWLock() *RWLock { return &RWLock{} }

// RLock acquires shared access; waiting writers take priority over new
// readers so writers cannot starve.
func (l *RWLock) RLock() {
	if l.state.Add(1) < writerUnit {
		return
	}
	// A writer is counted: back out, then wait for it under mu.
	if lastReader(l.state.Add(-1)) {
		l.wakeWriters()
	}
	l.mu.Acquire()
	for l.state.Load() >= writerUnit {
		l.changed.Wait(&l.mu)
	}
	l.state.Add(1)
	l.mu.Release()
}

// TryRLock acquires shared access without blocking.
func (l *RWLock) TryRLock() bool {
	for {
		s := l.state.Load()
		if s >= writerUnit {
			return false
		}
		if l.state.CompareAndSwap(s, s+1) {
			return true
		}
	}
}

// RUnlock releases shared access.
func (l *RWLock) RUnlock() {
	s := l.state.Add(-1)
	if s&readerMask == readerMask {
		// The reader field underflowed: restore it before panicking, and
		// wake any writer the transient count made wait.
		if lastReader(l.state.Add(1)) {
			l.wakeWriters()
		}
		panic("derived: RUnlock without RLock")
	}
	if lastReader(s) {
		l.wakeWriters()
	}
}

// lastReader reports whether state s counts a writer and no reader: the
// reader that produced s must wake the writers waiting for it.
func lastReader(s int64) bool { return s&readerMask == 0 && s >= writerUnit }

// wakeWriters wakes the writers waiting in Lock. Passing through mu first
// orders the Broadcast after any writer that tested the reader count under
// mu has entered Wait, so the wakeup cannot fall between its test and its
// Wait.
func (l *RWLock) wakeWriters() {
	l.mu.Acquire()
	l.mu.Release()
	l.changed.Broadcast()
}

// Lock acquires exclusive access.
func (l *RWLock) Lock() {
	l.mu.Acquire()
	l.state.Add(writerUnit)
	for l.writing || l.state.Load()&readerMask != 0 {
		l.changed.Wait(&l.mu)
	}
	l.writing = true
	l.mu.Release()
}

// Unlock releases exclusive access; all readers (or one writer) may
// resume, so Broadcast is necessary for correctness.
func (l *RWLock) Unlock() {
	l.mu.Acquire()
	if !l.writing {
		l.mu.Release()
		panic("derived: Unlock without Lock")
	}
	l.writing = false
	l.state.Add(-writerUnit)
	l.mu.Release()
	l.changed.Broadcast()
}

// Readers reports the current shared holders (advisory: a reader backing
// out of RLock is counted until it has).
func (l *RWLock) Readers() int { return int(l.state.Load() & readerMask) }
