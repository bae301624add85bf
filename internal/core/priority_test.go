package core

import (
	"testing"
	"time"
)

// waitForWaiters spins until the gate reports n blocked threads (the
// waiters must be parked, not merely forked, before the test releases).
func waitForWaiters(t *testing.T, n func() int, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for n() != want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d waiters (have %d)", want, n())
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestMutexWakeupPriorityOrder blocks three threads of distinct priorities
// on a held mutex and checks the releases deliver the mutex in priority
// order. HandoffAlways makes every release a direct transfer to the queue
// head, so the observed order is exactly the queue's selection order —
// no barging race to blur it.
func TestMutexWakeupPriorityOrder(t *testing.T) {
	prev := SetHandoffMode(HandoffAlways)
	defer SetHandoffMode(prev)

	var m Mutex
	m.Acquire()
	order := make(chan int, 3)
	var threads []*Thread
	for _, pri := range []int{1, 3, 2} {
		pri := pri
		threads = append(threads, ForkPri(pri, func() {
			m.Acquire()
			order <- pri
			m.Release()
		}))
	}
	waitForWaiters(t, m.Waiters, 3)
	m.Release()
	for _, th := range threads {
		Join(th)
	}
	close(order)
	var got []int
	for p := range order {
		got = append(got, p)
	}
	want := []int{3, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wakeup order %v, want %v (priority desc)", got, want)
		}
	}
}

// TestConditionSignalPriorityOrder parks three waiters of distinct
// priorities on one condition and checks each Signal wakes the most urgent
// one remaining.
func TestConditionSignalPriorityOrder(t *testing.T) {
	var m Mutex
	var c Condition
	tickets := 0 // threads allowed to leave; guarded by m
	order := make(chan int, 3)
	var threads []*Thread
	for _, pri := range []int{2, 1, 3} {
		pri := pri
		threads = append(threads, ForkPri(pri, func() {
			m.Acquire()
			for tickets == 0 {
				c.Wait(&m)
			}
			tickets--
			order <- pri
			m.Release()
		}))
	}
	waitForWaiters(t, c.Waiters, 3)
	want := []int{3, 2, 1}
	for i := 0; i < 3; i++ {
		m.Acquire()
		tickets++
		m.Release()
		c.Signal()
		if got := <-order; got != want[i] {
			t.Fatalf("Signal #%d woke priority %d, want %d", i, got, want[i])
		}
		// A multi-unblock straggler re-parks (tickets is 0 again); wait for
		// the queue to settle before the next round.
		waitForWaiters(t, c.Waiters, 2-i)
	}
	for _, th := range threads {
		Join(th)
	}
}

// TestPriorityInheritanceBoostRestore is the PI contract on one mutex: a
// blocked high-priority Acquire boosts the low-priority holder's effective
// priority for the duration of the hold, and Release restores it. It runs
// with statistics off as well as on: on, every operation takes its slow
// path, which would hide a fast path that skipped the PI bookkeeping.
func TestPriorityInheritanceBoostRestore(t *testing.T) {
	for _, row := range []struct {
		name  string
		stats bool
	}{{"stats-off", false}, {"stats-on", true}} {
		t.Run(row.name, func(t *testing.T) {
			defer EnableStats(EnableStats(row.stats))
			base := SnapshotStats()

			var m Mutex
			m.SetPriorityInheritance(true)
			defer m.SetPriorityInheritance(false)

			held := make(chan struct{})
			releaseIt := make(chan struct{})
			low := ForkPri(1, func() {
				m.Acquire()
				close(held)
				<-releaseIt
				m.Release()
			})
			<-held
			high := ForkPri(5, func() {
				m.Acquire()
				m.Release()
			})
			// The boost lands when high's slow path parks; poll for it.
			deadline := time.Now().Add(5 * time.Second)
			for low.EffectivePriority() != 5 {
				if time.Now().After(deadline) {
					t.Fatalf("holder effective priority = %d, want boosted to 5", low.EffectivePriority())
				}
				time.Sleep(50 * time.Microsecond)
			}
			if got := low.Priority(); got != 1 {
				t.Fatalf("holder base priority changed to %d, want 1", got)
			}
			close(releaseIt)
			Join(low)
			Join(high)
			if got := low.EffectivePriority(); got != 1 {
				t.Fatalf("after Release, holder effective priority = %d, want restored to 1", got)
			}
			if !row.stats {
				return
			}
			s := SnapshotStats()
			if s.PriBoost-base.PriBoost == 0 || s.PriRestore-base.PriRestore == 0 {
				t.Fatalf("boost/restore counters did not move: boosts %d, restores %d",
					s.PriBoost-base.PriBoost, s.PriRestore-base.PriRestore)
			}
		})
	}
}

// TestSetPriorityRaisesEffective checks SetPriority feeds the effective
// priority and that donations win over a lower base.
func TestSetPriorityRaisesEffective(t *testing.T) {
	done := make(chan struct{})
	th := Fork(func() { <-done })
	defer func() { close(done); Join(th) }()
	if th.Priority() != 0 || th.EffectivePriority() != 0 {
		t.Fatalf("fresh thread priority = %d/%d, want 0/0", th.Priority(), th.EffectivePriority())
	}
	th.SetPriority(4)
	if th.Priority() != 4 || th.EffectivePriority() != 4 {
		t.Fatalf("after SetPriority(4): %d/%d, want 4/4", th.Priority(), th.EffectivePriority())
	}
	th.SetPriority(2)
	if th.EffectivePriority() != 2 {
		t.Fatalf("lowering base: effective = %d, want 2", th.EffectivePriority())
	}
}

// TestPIDonationTableOverflow drops boosts past maxDonations without
// corrupting the restore path: after all mutexes release, the base
// priority is back, whatever was dropped.
func TestPIDonationTableOverflow(t *testing.T) {
	const n = maxDonations + 2
	var ms [n]Mutex
	for i := range ms {
		ms[i].SetPriorityInheritance(true)
	}
	hold := make(chan struct{})
	holder := ForkPri(1, func() {
		for i := range ms {
			ms[i].Acquire()
		}
		<-hold
		for i := range ms {
			ms[i].Release()
		}
	})
	time.Sleep(time.Millisecond) // let the holder take all gates
	var waiters []*Thread
	for i := range ms {
		i := i
		waiters = append(waiters, ForkPri(3+i, func() {
			ms[i].Acquire()
			ms[i].Release()
		}))
	}
	deadline := time.Now().Add(5 * time.Second)
	for holder.EffectivePriority() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("no donation landed; effective = %d", holder.EffectivePriority())
		}
		time.Sleep(50 * time.Microsecond)
	}
	close(hold)
	Join(holder)
	for _, w := range waiters {
		Join(w)
	}
	if got := holder.EffectivePriority(); got != 1 {
		t.Fatalf("after releasing everything, effective = %d, want base 1", got)
	}
}
