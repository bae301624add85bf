package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// runRecovering runs k and returns Run's error, or the value of the panic
// Run re-raised.
func runRecovering(k *Kernel) (r any, err error) {
	defer func() { r = recover() }()
	return nil, k.Run()
}

// TestRunEnds covers every way a run ends. Run returns the run's error or
// re-raises the first panic on its caller's goroutine, and either way only
// once every thread goroutine has unwound: those that finished, those
// parked mid-body, and those never granted a step.
func TestRunEnds(t *testing.T) {
	var w Word
	spin := func(e *Env) {
		for {
			e.Load(&w)
		}
	}
	// three spawns a, b and c on two processors, so c waits in the ready
	// pool until a processor frees.
	three := func(cfg Config, a, b, c func(*Env)) func() *Kernel {
		return func() *Kernel {
			cfg.Procs = 2
			k := NewKernel(cfg)
			k.Spawn("a", a)
			k.Spawn("b", b)
			k.Spawn("c", c)
			return k
		}
	}
	loads := func(e *Env) { e.Load(&w); e.Load(&w) }
	// nth returns a Choose hook that keeps the previous thread and calls
	// last at its nth decision.
	nth := func(n int, last func(cands []*T) int) func(prev *T, cands []*T) int {
		calls := 0
		return func(prev *T, cands []*T) int {
			if calls++; calls == n {
				return last(cands)
			}
			for i, c := range cands {
				if c == prev {
					return i
				}
			}
			return 0
		}
	}
	var aborting *Kernel
	cases := []struct {
		name  string
		setup func() *Kernel
		check func(r any, err error) bool
	}{
		{
			name:  "completes",
			setup: three(Config{}, loads, loads, loads),
			check: func(r any, err error) bool { return r == nil && err == nil },
		},
		{
			name: "deadlock",
			setup: three(Config{}, loads,
				func(e *Env) { e.Load(&w); e.Deschedule("forever") }, loads),
			check: func(r any, err error) bool {
				var de *DeadlockError
				return r == nil && errors.As(err, &de) && len(de.Blocked) == 1
			},
		},
		{
			name:  "step limit",
			setup: three(Config{MaxSteps: 50}, spin, spin, spin),
			check: func(r any, err error) bool { return r == nil && errors.Is(err, ErrStepLimit) },
		},
		{
			name: "aborted by Choose",
			setup: func() *Kernel {
				aborting = three(Config{Choose: nth(3, func([]*T) int {
					aborting.Abort()
					return 0
				})}, spin, spin, spin)()
				return aborting
			},
			check: func(r any, err error) bool { return r == nil && errors.Is(err, ErrAborted) },
		},
		{
			name: "thread panics",
			setup: three(Config{}, func(e *Env) {
				e.Load(&w)
				panic("boom")
			}, spin, spin),
			check: func(r any, err error) bool { return r == "boom" && err == nil },
		},
		{
			name: "Choose index out of range",
			setup: three(Config{Choose: nth(3, func(cands []*T) int { return len(cands) })},
				spin, spin, spin),
			check: func(r any, err error) bool {
				return r == "sim: Choose returned index 2 with 2 candidates" && err == nil
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			r, err := runRecovering(tc.setup())
			if !tc.check(r, err) {
				t.Errorf("Run = (panic %v, error %v)", r, err)
			}
			// Run closed its own carriers; give their goroutines the
			// moment they need to exit after it.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%d goroutines after the run, %d before", n, before)
			}
		})
	}
}

var benchWord Word

// BenchmarkStep is the kernel's cost per simulated step, one op being one
// step: two threads on two processors Load a shared word, with Choose
// consulted at every step. "keep" keeps the running thread, so the thread
// that reaches a yield point continues on its own carrier; "alternate"
// switches threads every step, so every step hands the baton over through
// Run's loop.
func BenchmarkStep(b *testing.B) {
	keep := func(prev *T, cands []*T) int {
		for i, c := range cands {
			if c == prev {
				return i
			}
		}
		return 0
	}
	alternate := func(prev *T, cands []*T) int {
		for i, c := range cands {
			if c != prev {
				return i
			}
		}
		return 0
	}
	for _, bc := range []struct {
		name   string
		choose func(prev *T, cands []*T) int
	}{{"keep", keep}, {"alternate", alternate}} {
		b.Run(bc.name, func(b *testing.B) {
			k := NewKernel(Config{Procs: 2, Choose: bc.choose})
			for _, n := range []int{b.N / 2, b.N - b.N/2} {
				k.Spawn("", func(e *Env) {
					for i := 0; i < n; i++ {
						e.Load(&benchWord)
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
