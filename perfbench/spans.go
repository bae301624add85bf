package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanName is a layer boundary the benchmark times from outside: each span
// brackets one of the benchmark's own calls into a layer's public API.
type spanName uint8

const (
	spRequest    spanName = iota // pipeline root: submit to logged
	spRingPush                   // derived.Ring PushDeadline / Push
	spRingPop                    // derived.Ring PopDeadline / Pop, waiting included
	spWindowWait                 // client waits for a free window slot (Mutex + Condition)
	spRLock                      // derived.RWLock RLock
	spLock                       // derived.RWLock Lock
	spKVOp                       // kv root: one get or put
	spFork                       // threads.Fork
	spJoin                       // threads.Join
	spExplore                    // explore.Explore of one litmus
	spMinimize                   // explore.Minimize of a violation certificate
	spSimRun                     // simthreads.NewWorldOpts + Build + Kernel.Run
	spTraceCheck                 // trace.CheckAll of that run's events
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"request", "ring.push", "ring.pop", "client.window_wait", "rwlock.rlock", "rwlock.lock",
	"kv.op", "threads.fork", "threads.join", "explore", "explore.minimize", "sim.run", "trace.check",
}

// span is one recorded interval. Times are ns since the tracer's base.
// parent indexes the same buffer (-1 for none); req groups the spans of one
// pipeline request across threads (-1 for none).
type span struct {
	name       spanName
	parent     int32
	req        int64
	start, end int64
}

// tracer keeps spans in memory, one buffer per thread so recording takes no
// lock, and writes them out when the run ends.
type tracer struct {
	base   time.Time
	mu     sync.Mutex
	bufs   []*spanBuf
	rounds int64
}

type spanBuf struct{ spans []span }

func newTracer() *tracer { return &tracer{base: time.Now()} }

// buffer returns a new per-thread span buffer.
func (t *tracer) buffer(capacity int) *spanBuf {
	b := &spanBuf{spans: make([]span, 0, capacity)}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// requestBase returns an offset for one round's request ids, so rounds
// that share the tracer keep their requests apart.
func (t *tracer) requestBase() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rounds++
	return t.rounds << 40
}

// add records a span and returns its index for children to name as parent.
func (b *spanBuf) add(name spanName, parent int32, req, start, end int64) int32 {
	b.spans = append(b.spans, span{name, parent, req, start, end})
	return int32(len(b.spans) - 1)
}

// selfTimes returns, per span name, the sorted self times in ns: a span's
// duration minus the part of it that its children cover. Children are the
// spans naming it as parent and, for a request root, every other span of
// the same request.
func (t *tracer) selfTimes() [numSpanNames][]float64 {
	type iv struct{ s, e int64 }
	children := map[[2]int]([]iv){}
	roots := map[int64][2]int{}
	for bi, b := range t.bufs {
		for si, s := range b.spans {
			if s.name == spRequest {
				roots[s.req] = [2]int{bi, si}
			}
		}
	}
	for bi, b := range t.bufs {
		for _, s := range b.spans {
			switch {
			case s.parent >= 0:
				k := [2]int{bi, int(s.parent)}
				children[k] = append(children[k], iv{s.start, s.end})
			case s.req >= 0 && s.name != spRequest:
				if k, ok := roots[s.req]; ok {
					children[k] = append(children[k], iv{s.start, s.end})
				}
			}
		}
	}
	var out [numSpanNames][]float64
	for bi, b := range t.bufs {
		for si, s := range b.spans {
			self := s.end - s.start
			kids := children[[2]int{bi, si}]
			sort.Slice(kids, func(i, j int) bool { return kids[i].s < kids[j].s })
			cur := s.start
			for _, k := range kids {
				lo, hi := max(k.s, cur), min(k.e, s.end)
				if hi > lo {
					self -= hi - lo
					cur = hi
				}
			}
			out[s.name] = append(out[s.name], float64(self))
		}
	}
	for i := range out {
		sort.Float64s(out[i])
	}
	return out
}

// mean is the average of samples (0 if none).
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// write stores every span as tab-separated text in dir/name.tsv. An empty
// dir writes nothing.
func (t *tracer) write(dir, name string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, name+".tsv"))
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "thread\tspan\tname\tparent\treq\tstart_ns\tend_ns\n")
	for bi, b := range t.bufs {
		for si, s := range b.spans {
			fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\n", bi, si, spanNames[s.name], s.parent, s.req, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
