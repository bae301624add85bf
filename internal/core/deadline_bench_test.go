package core

import (
	"testing"
	"time"
)

// The component costs behind the E18 (root bench_test.go) numbers: a
// deadline wait that can block is SELF recovery + the inner alertable wait
// + one timer Reset/Stop round trip. These isolate the first and last terms
// so a regression in either is attributable.

func BenchmarkSelf(b *testing.B) {
	b.ReportAllocs()
	Self() // adopt once, outside the measured loop
	for i := 0; i < b.N; i++ {
		Self()
	}
}

// BenchmarkSelfForked is BenchmarkSelf on a Fork'd thread, whose registry
// hit needs no goroutine-id check.
func BenchmarkSelfForked(b *testing.B) {
	b.ReportAllocs()
	Join(Fork(func() {
		for i := 0; i < b.N; i++ {
			Self()
		}
	}))
}

func BenchmarkTimerArmCancel(b *testing.B) {
	b.ReportAllocs()
	t := Self()
	deadline := time.Now().Add(time.Hour)
	for i := 0; i < b.N; i++ {
		e := t.armDeadline(deadline)
		if e.cancelAndDrain() {
			b.Fatal("hour-out deadline fired")
		}
	}
}
