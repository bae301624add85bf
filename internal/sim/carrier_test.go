package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// rotate is a Choose hook that runs the candidates round robin, one step
// each, so every thread on a processor is parked mid-body on its own
// carrier at once.
func rotate(prev *T, cands []*T) int {
	for i, c := range cands {
		if prev != nil && c.id > prev.id {
			return i
		}
	}
	return 0
}

// idleCarriers fails t unless every goroutine started since before is a
// carrier idle in pool, and returns how many carriers are idle.
func idleCarriers(t *testing.T, pool *Carriers, before int) int {
	t.Helper()
	waitGoroutines(before + len(pool.free))
	if n := runtime.NumGoroutine() - before; n > len(pool.free) {
		t.Fatalf("%d goroutines started, %d carriers idle in the pool", n, len(pool.free))
	}
	return len(pool.free)
}

// waitGoroutines gives goroutines past n the moment they need to exit: a
// closed channel carrier's goroutine exits just after Close returns.
func waitGoroutines(n int) {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n && time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// TestCarriersReused: a pool makes a carrier only when no idle one is left,
// so over many runs it never holds more carriers than a run has live
// threads at once.
func TestCarriersReused(t *testing.T) {
	before := runtime.NumGoroutine()
	var pool Carriers
	defer pool.Close()
	var w Word
	for run := 0; run < 100; run++ {
		k := NewKernel(Config{Procs: 3, Choose: rotate, Carriers: &pool})
		for _, name := range []string{"a", "b", "c"} {
			k.Spawn(name, func(e *Env) {
				for i := 0; i < 5; i++ {
					e.Add(&w, 1)
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Peek(); got != 100*3*5 {
		t.Errorf("word = %d after the runs, want %d", got, 100*3*5)
	}
	if n := idleCarriers(t, &pool, before); n == 0 || n > 3 {
		t.Errorf("pool made %d carriers over 100 runs of 3 threads, want 1 to 3", n)
	}
}

// TestCarrierReuseAfterAbnormalEnd: whichever way a run ends, each of its
// carriers goes back to the pool, and the next run on that pool runs its
// threads from the start of their bodies.
func TestCarrierReuseAfterAbnormalEnd(t *testing.T) {
	var w Word
	spin := func(e *Env) {
		for {
			e.Load(&w)
		}
	}
	var aborting *Kernel
	abortAt3 := func(prev *T, cands []*T) int {
		if aborting.Steps() >= 3 {
			aborting.Abort()
		}
		return rotate(prev, cands)
	}
	cases := []struct {
		name  string
		cfg   Config
		body  func(*Env)
		check func(r any, err error) bool
	}{
		{
			name: "panic",
			cfg:  Config{Choose: rotate},
			body: func(e *Env) { e.Load(&w); panic("boom") },
			check: func(r any, err error) bool {
				return r == "boom"
			},
		},
		{
			name: "deadlock",
			cfg:  Config{Choose: rotate},
			body: func(e *Env) { e.Load(&w); e.Deschedule("forever") },
			check: func(r any, err error) bool {
				var de *DeadlockError
				return r == nil && errors.As(err, &de)
			},
		},
		{
			name:  "step limit",
			cfg:   Config{Choose: rotate, MaxSteps: 20},
			body:  spin,
			check: func(r any, err error) bool { return r == nil && errors.Is(err, ErrStepLimit) },
		},
		{
			name:  "aborted mid-body",
			cfg:   Config{Choose: abortAt3},
			body:  spin,
			check: func(r any, err error) bool { return r == nil && errors.Is(err, ErrAborted) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			var pool Carriers
			defer pool.Close()
			cfg := tc.cfg
			cfg.Procs = 2
			cfg.Carriers = &pool
			k := NewKernel(cfg)
			aborting = k
			k.Spawn("a", tc.body)
			k.Spawn("b", tc.body)
			if r, err := runRecovering(k); !tc.check(r, err) {
				t.Fatalf("Run = (panic %v, error %v)", r, err)
			}
			idle := idleCarriers(t, &pool, before)
			if idle == 0 {
				t.Fatal("the run made no carriers")
			}
			var x Word
			var steps [2]int
			k = NewKernel(Config{Procs: 2, Choose: rotate, Carriers: &pool})
			for i := range steps {
				k.Spawn("", func(e *Env) {
					for j := 0; j < 4; j++ {
						e.Add(&x, 1)
						steps[i]++
					}
				})
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if x.Peek() != 8 || steps != [2]int{4, 4} {
				t.Errorf("clean run after reuse: word %d, steps %v; want 8, [4 4]", x.Peek(), steps)
			}
			if n := idleCarriers(t, &pool, before); n != idle {
				t.Errorf("clean run made %d new carriers, want 0", n-idle)
			}
		})
	}
}

// TestCarriersClose: closing a pool ends its carriers' goroutines.
func TestCarriersClose(t *testing.T) {
	before := runtime.NumGoroutine()
	var pool Carriers
	var w Word
	k := NewKernel(Config{Procs: 3, Choose: rotate, Carriers: &pool})
	for i := 0; i < 3; i++ {
		k.Spawn("", func(e *Env) { e.Load(&w); e.Load(&w) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n := idleCarriers(t, &pool, before); n != 3 {
		t.Fatalf("pool made %d carriers, want 3", n)
	}
	pool.Close()
	waitGoroutines(before)
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Close, %d before the pool", n, before)
	}
}
