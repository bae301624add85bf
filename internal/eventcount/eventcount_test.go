package eventcount

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestZeroValue(t *testing.T) {
	var c Count
	if c.Read() != 0 {
		t.Fatalf("zero-value Count reads %d, want 0", c.Read())
	}
	if c.AdvancedSince(0) {
		t.Fatal("fresh Count should not have advanced since 0")
	}
}

func TestAdvance(t *testing.T) {
	var c Count
	for i := uint64(1); i <= 5; i++ {
		if got := c.Advance(); got != i {
			t.Fatalf("Advance #%d = %d", i, got)
		}
		if c.Read() != i {
			t.Fatalf("Read after Advance = %d, want %d", c.Read(), i)
		}
	}
	if !c.AdvancedSince(3) {
		t.Fatal("AdvancedSince(3) should be true at count 5")
	}
	if c.AdvancedSince(5) {
		t.Fatal("AdvancedSince(5) should be false at count 5")
	}
}

// TestWakeupWaitingWindow models the Wait protocol: a reader snapshots the
// count, an intervening Advance must be visible to AdvancedSince.
func TestWakeupWaitingWindow(t *testing.T) {
	var c Count
	i := c.Read()
	c.Advance() // the Signal that races into the window
	if !c.AdvancedSince(i) {
		t.Fatal("an Advance between Read and the Block test was lost")
	}
}

// TestConcurrentAdvance checks monotonicity and that no increments are lost
// under concurrency.
func TestConcurrentAdvance(t *testing.T) {
	const (
		goroutines = 8
		iters      = 10000
	)
	var c Count
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			var last uint64
			for i := 0; i < iters; i++ {
				v := c.Advance()
				if v <= last {
					t.Error("Advance returned non-increasing value to one caller")
					return
				}
				last = v
			}
		}()
	}
	wg.Wait()
	if c.Read() != goroutines*iters {
		t.Fatalf("final count %d, want %d", c.Read(), goroutines*iters)
	}
}

// TestQuickMonotonic property-tests that any interleaving of Reads and
// Advances yields non-decreasing reads.
func TestQuickMonotonic(t *testing.T) {
	check := func(ops []bool) bool {
		var c Count
		var lastRead uint64
		var advances uint64
		for _, adv := range ops {
			if adv {
				c.Advance()
				advances++
			} else {
				r := c.Read()
				if r < lastRead || r != advances {
					return false
				}
				lastRead = r
			}
		}
		return c.Read() == advances
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}
