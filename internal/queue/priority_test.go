package queue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPriorityOrder(t *testing.T) {
	pq := NewPriorityQueue[string]()
	pq.Push(NewPItem("low", 1))
	pq.Push(NewPItem("high", 10))
	pq.Push(NewPItem("mid", 5))
	want := []string{"high", "mid", "low"}
	for _, w := range want {
		it := pq.Pop()
		if it == nil || it.Value != w {
			t.Fatalf("Pop = %v, want %q", it, w)
		}
		if it.Queued() {
			t.Fatal("popped item still reports Queued")
		}
	}
	if pq.Pop() != nil {
		t.Fatal("Pop on empty priority queue should return nil")
	}
}

func TestPriorityFIFOTiebreak(t *testing.T) {
	pq := NewPriorityQueue[int]()
	for i := 0; i < 8; i++ {
		pq.Push(NewPItem(i, 3))
	}
	for i := 0; i < 8; i++ {
		it := pq.Pop()
		if it.Value != i {
			t.Fatalf("equal-priority Pop #%d = %d, want FIFO order", i, it.Value)
		}
	}
}

func TestPriorityRemove(t *testing.T) {
	pq := NewPriorityQueue[int]()
	items := make([]*PItem[int], 6)
	for i := range items {
		items[i] = NewPItem(i, Priority(i%3))
		pq.Push(items[i])
	}
	if !pq.Remove(items[4]) {
		t.Fatal("Remove of queued item failed")
	}
	if pq.Remove(items[4]) {
		t.Fatal("second Remove should report false")
	}
	if pq.Len() != 5 {
		t.Fatalf("Len = %d, want 5", pq.Len())
	}
	seen := map[int]bool{}
	for it := pq.Pop(); it != nil; it = pq.Pop() {
		seen[it.Value] = true
	}
	if seen[4] {
		t.Fatal("removed item was popped")
	}
}

func TestPriorityFix(t *testing.T) {
	pq := NewPriorityQueue[string]()
	a := NewPItem("a", 1)
	b := NewPItem("b", 2)
	pq.Push(a)
	pq.Push(b)
	a.Priority = 9
	pq.Fix(a)
	if it := pq.Pop(); it != a {
		t.Fatalf("after Fix, Pop = %v, want a", it.Value)
	}
}

func TestPriorityDoublePushPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pushing a queued item should panic")
		}
	}()
	pq := NewPriorityQueue[int]()
	it := NewPItem(1, 1)
	pq.Push(it)
	pq.Push(it)
}

func TestPriorityZeroValueItem(t *testing.T) {
	pq := NewPriorityQueue[int]()
	var it PItem[int]
	if it.Queued() {
		t.Fatal("zero-value item reports Queued")
	}
	pq.Push(&it)
	if got := pq.Pop(); got != &it {
		t.Fatal("zero-value item round-trip failed")
	}
}

// TestPriorityQuickModel property-tests the heap against a sorted-slice
// model: pops must come out in (priority desc, insertion order) sequence.
func TestPriorityQuickModel(t *testing.T) {
	type rec struct {
		pri Priority
		seq int
		it  *PItem[int]
	}
	check := func(pris []int8) bool {
		pq := NewPriorityQueue[int]()
		var model []rec
		for i, p := range pris {
			it := NewPItem(i, Priority(p))
			pq.Push(it)
			model = append(model, rec{Priority(p), i, it})
		}
		sort.SliceStable(model, func(a, b int) bool {
			if model[a].pri != model[b].pri {
				return model[a].pri > model[b].pri
			}
			return model[a].seq < model[b].seq
		})
		for _, want := range model {
			got := pq.Pop()
			if got != want.it {
				return false
			}
		}
		return pq.Empty()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// TestPriorityInterleavedContention property-tests the wakeup-selection
// contract under contention: enqueues and dequeues interleave (as waiters
// arrive while releases are draining), and every dequeue must return the
// highest-priority item then queued, FIFO within that band. The ops stream
// is random but the oracle is exact: a stable-sorted model replayed op by
// op.
func TestPriorityInterleavedContention(t *testing.T) {
	type rec struct {
		pri Priority
		seq int
		it  *PItem[int]
	}
	check := func(ops []uint16) bool {
		pq := NewPriorityQueue[int]()
		var model []rec
		next := 0
		for _, op := range ops {
			if op%3 != 0 || len(model) == 0 {
				// Enqueue at a priority drawn from the op itself.
				pri := Priority(op % 5)
				it := NewPItem(next, pri)
				pq.Push(it)
				model = append(model, rec{pri, next, it})
				next++
				continue
			}
			// Dequeue: the model's winner is max priority, then lowest seq.
			best := 0
			for i, r := range model[1:] {
				if r.pri > model[best].pri || (r.pri == model[best].pri && r.seq < model[best].seq) {
					best = i + 1
				}
			}
			got := pq.Pop()
			if got != model[best].it {
				return false
			}
			model = append(model[:best], model[best+1:]...)
		}
		// Drain the rest; order must remain priority-then-FIFO.
		sort.SliceStable(model, func(a, b int) bool {
			if model[a].pri != model[b].pri {
				return model[a].pri > model[b].pri
			}
			return model[a].seq < model[b].seq
		})
		for _, want := range model {
			if pq.Pop() != want.it {
				return false
			}
		}
		return pq.Empty()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// TestPriorityNoStarvationOnceBandsDrain is the starvation regression for
// the wakeup path: an already-enqueued low-priority waiter must surface as
// soon as the high band drains, no matter how many high-priority arrivals
// overtook it in between — its FIFO seq must not be disturbed by later
// traffic. (The queue is strict-priority by design, so the guarantee under
// *continuous* high load is the scheduler's quantum, not the queue's; what
// the queue owes the low waiter is exactly this drain-time delivery.)
func TestPriorityNoStarvationOnceBandsDrain(t *testing.T) {
	pq := NewPriorityQueue[string]()
	low := NewPItem("low", 0)
	pq.Push(low)
	// Waves of high-priority arrivals, each wave partially drained before
	// the next arrives — the low item survives every wave at the bottom.
	for wave := 0; wave < 50; wave++ {
		for i := 0; i < 4; i++ {
			pq.Push(NewPItem("high", 7))
		}
		for i := 0; i < 3; i++ {
			if it := pq.Pop(); it.Value != "high" {
				t.Fatalf("wave %d: popped %q while the high band was non-empty", wave, it.Value)
			}
		}
	}
	// Drain the leftover high items (one per wave); the very next pop must
	// be the low waiter enqueued before any of them.
	for pq.Len() > 1 {
		if it := pq.Pop(); it.Value != "high" {
			t.Fatalf("popped %q while the high band was non-empty", it.Value)
		}
	}
	if it := pq.Pop(); it != low {
		t.Fatalf("after bands drained, Pop = %v, want the stranded low waiter", it)
	}
}

// TestPriorityDrain checks Drain pops in priority-then-FIFO order, empties
// the queue, and tolerates fn pushing items onto another queue.
func TestPriorityDrain(t *testing.T) {
	src := NewPriorityQueue[int]()
	dst := NewPriorityQueue[int]()
	for i := 0; i < 6; i++ {
		src.Push(NewPItem(i, Priority(i%2)))
	}
	var order []int
	src.Drain(func(it *PItem[int]) {
		order = append(order, it.Value)
		dst.Push(it)
	})
	want := []int{1, 3, 5, 0, 2, 4}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("drain order %v, want %v", order, want)
		}
	}
	if !src.Empty() || dst.Len() != 6 {
		t.Fatalf("after drain: src len %d, dst len %d", src.Len(), dst.Len())
	}
}

// TestPriorityQuickRemove interleaves random removals with pops and checks
// consistency with a model.
func TestPriorityQuickRemove(t *testing.T) {
	check := func(pris []uint8, removeMask uint32) bool {
		pq := NewPriorityQueue[int]()
		items := make([]*PItem[int], len(pris))
		for i, p := range pris {
			items[i] = NewPItem(i, Priority(p%8))
			pq.Push(items[i])
		}
		removed := map[int]bool{}
		for i := range items {
			if removeMask&(1<<(uint(i)%32)) != 0 && i%2 == 0 {
				if !pq.Remove(items[i]) {
					return false
				}
				removed[i] = true
			}
		}
		var lastPri Priority = 1 << 20
		count := 0
		for it := pq.Pop(); it != nil; it = pq.Pop() {
			if removed[it.Value] {
				return false
			}
			if it.Priority > lastPri {
				return false
			}
			lastPri = it.Priority
			count++
		}
		return count == len(items)-len(removed)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}
