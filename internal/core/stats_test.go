package core

import (
	"reflect"
	"sync"
	"testing"
	"unsafe"
)

// TestStatsFieldsAreUint64 pins the layout the counter IDs rely on: Stats
// is exactly numStats uint64 fields, so field i sits at offset 8i and
// SnapshotStats may fill the struct as a [numStats]uint64.
func TestStatsFieldsAreUint64(t *testing.T) {
	typ := reflect.TypeOf(Stats{})
	if typ.NumField() != int(numStats) {
		t.Fatalf("Stats has %d fields, numStats = %d", typ.NumField(), numStats)
	}
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() != reflect.Uint64 || f.Offset != uintptr(8*i) {
			t.Errorf("Stats.%s: %s at offset %d, want uint64 at offset %d", f.Name, f.Type, f.Offset, 8*i)
		}
	}
}

// TestShardsFillWholeCacheLines checks that every padded shard type is a
// whole number of cache lines, so neighbouring shards never share one.
func TestShardsFillWholeCacheLines(t *testing.T) {
	for _, c := range []struct {
		name string
		size uintptr
	}{
		{"registryShard", unsafe.Sizeof(registryShard{})},
		{"statShard", unsafe.Sizeof(statShard{})},
		{"traceShard", unsafe.Sizeof(traceShard{})},
	} {
		if c.size == 0 || c.size%cacheLineSize != 0 {
			t.Errorf("%s is %d bytes, not a whole number of %d-byte cache lines", c.name, c.size, cacheLineSize)
		}
	}
}

// TestStatsCrossCounterInvariantsAtQuiescence asserts the relationships
// between counters that SnapshotStats documents as meaningful only at
// quiescence: the test joins every worker before snapshotting, so each
// completed operation has incremented exactly one counter of its outcome
// partition. (A mid-run snapshot can legitimately violate all of these —
// see the SnapshotStats doc comment — which is why the assertions live
// after the joins and why no other stats test samples while workers run.)
func TestStatsCrossCounterInvariantsAtQuiescence(t *testing.T) {
	defer EnableStats(EnableStats(true))
	ResetStats()

	const (
		goroutines = 8
		iters      = 2000
		waiters    = 6
	)
	var (
		m  Mutex
		wg sync.WaitGroup
	)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		Fork(func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.Acquire()
				m.Release()
			}
		})
	}

	var (
		cm   Mutex
		c    Condition
		gate bool
		cwg  sync.WaitGroup
	)
	cwg.Add(waiters)
	for i := 0; i < waiters; i++ {
		Fork(func() {
			defer cwg.Done()
			cm.Acquire()
			for !gate {
				c.Wait(&cm)
			}
			cm.Release()
		})
	}
	wg.Wait()
	for {
		cm.Acquire()
		if c.Waiters() == waiters {
			gate = true
			c.Broadcast()
			cm.Release()
			break
		}
		cm.Release()
	}
	cwg.Wait() // quiesce: every worker joined before the snapshot

	s := SnapshotStats()
	acquires := uint64(goroutines*iters) + s.WaitCount // each Wait reacquires
	if got := s.AcquireFast + s.AcquireSpin + s.AcquireNub; got < acquires {
		t.Errorf("fast+spin+nub = %d, want >= %d completed Acquires", got, acquires)
	}
	if s.AcquireBackout+s.AcquirePark < s.AcquireNub {
		t.Errorf("backout(%d)+park(%d) < nub entries(%d): a Nub round resolved without an outcome",
			s.AcquireBackout, s.AcquirePark, s.AcquireNub)
	}
	if s.ReleaseFast+s.ReleaseNub+s.ReleaseHandoff < uint64(goroutines*iters) {
		t.Errorf("releases fast(%d)+nub(%d)+handoff(%d) < %d completed Releases",
			s.ReleaseFast, s.ReleaseNub, s.ReleaseHandoff, goroutines*iters)
	}
	if s.WaitSpin+s.WaitElided+s.WaitPark != s.WaitCount {
		t.Errorf("wait outcomes spin(%d)+elided(%d)+park(%d) != WaitCount(%d)",
			s.WaitSpin, s.WaitElided, s.WaitPark, s.WaitCount)
	}
	if s.SignalWoke > s.SignalNub {
		t.Errorf("SignalWoke(%d) > SignalNub(%d)", s.SignalWoke, s.SignalNub)
	}
	if s.WaitCount < waiters {
		t.Errorf("WaitCount = %d, want >= %d", s.WaitCount, waiters)
	}
}
