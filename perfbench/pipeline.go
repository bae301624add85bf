package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"threads"
	"threads/derived"
)

// The pipeline workload is the event daemon of the ROADMAP: one client
// thread keeps a fixed window of requests in flight (callers wait for
// replies, so the loop is closed); each request goes Ring.PushDeadline →
// a Fork'd pool of nproc workers in Ring.PopDeadline → a rule match under
// RWLock.RLock → an export Ring → one logger thread, which replies. Nearly
// every pop waits on an empty ring, so the time goes to park and wake,
// hand-off, conditions, and the SELF and timer cost of each alertable wait.
const (
	pipelineInputs = 1 << 16 // distinct generated requests; the client cycles through them
	pipelineRules  = 256
	updateOneIn    = 64                    // share of requests preceded by a rule update
	pipelineWindow = 64                    // requests in flight; both rings hold a full window (NOTES.md says why 64)
	pipelineRounds = 60                    // set-ups per run (NOTES.md says why 60)
	popIdle        = 50 * time.Millisecond // a worker's idle deadline
	pushTimeout    = time.Second
	latOneIn       = 4  // requests whose latency is recorded: ids divisible by this
	traceOneIn     = 64 // traced requests: ids divisible by this
)

// pipelineInput is everything the generator derives from the seed.
type pipelineInput struct {
	ruleSeed uint64
	keys     []uint32 // request i matches rule keys[i] % pipelineRules
	updates  []int16  // rule bumped just before request i is submitted, or -1
}

func genPipeline(seed int64) *pipelineInput {
	r := rand.New(rand.NewSource(seed))
	in := &pipelineInput{
		ruleSeed: r.Uint64(),
		keys:     make([]uint32, pipelineInputs),
		updates:  make([]int16, pipelineInputs),
	}
	for i := range in.keys {
		in.keys[i] = r.Uint32()
		in.updates[i] = -1
		if r.Intn(updateOneIn) == 0 {
			in.updates[i] = int16(r.Intn(pipelineRules))
		}
	}
	return in
}

// encode serializes the input, so tests can compare two generations.
func (in *pipelineInput) encode() []byte {
	var b bytes.Buffer
	_ = binary.Write(&b, binary.LittleEndian, in.ruleSeed) // writes to a bytes.Buffer cannot fail
	_ = binary.Write(&b, binary.LittleEndian, in.keys)
	_ = binary.Write(&b, binary.LittleEndian, in.updates)
	return b.Bytes()
}

// rule is one entry of the rule table; value is a function of the rule's
// index and version, so the check can recompute what a match must return.
type rule struct {
	version uint32
	value   uint64
}

func ruleValue(seed uint64, r int, version uint32) uint64 {
	return mix64(seed ^ uint64(r)<<32 ^ uint64(version))
}

func ruleResult(key uint32, value uint64) uint32 { return uint32(mix64(uint64(key) ^ value)) }

func initialRules(in *pipelineInput) []rule {
	rules := make([]rule, pipelineRules)
	for i := range rules {
		rules[i].value = ruleValue(in.ruleSeed, i, 0)
	}
	return rules
}

// bump moves rule u to its next version.
func bump(in *pipelineInput, rules []rule, u int) {
	rules[u].version++
	rules[u].value = ruleValue(in.ruleSeed, u, rules[u].version)
}

type request struct {
	id     int64
	key    uint32
	submit int64 // ns since the round's base
}

type reply struct {
	id              int64
	version, result uint32
	submit          int64
}

// logRec is one logged reply.
type logRec struct{ id, version, result uint32 }

// pipelineOut is what a round's check reads: everything logged, plus the
// final rule table and how many requests the client submitted.
type pipelineOut struct {
	log       []logRec
	rules     []rule
	submitted int
	refused   int
	latUS     []float32
	updates   int
}

// checkPipeline verifies that every submitted request was logged exactly
// once and that each result is the one its rule's matched version gives.
// It returns the number of bad requests and a description of the first.
// seen is scratch space, reused when it is long enough.
func checkPipeline(in *pipelineInput, out *pipelineOut, seen []uint8) (int, error) {
	const badBit = 0x80
	var first error
	if len(seen) < out.submitted {
		seen = make([]uint8, out.submitted)
	}
	seen = seen[:out.submitted]
	clear(seen)
	extra := 0
	note := func(err error) {
		if first == nil {
			first = err
		}
	}
	for _, l := range out.log {
		id := int(l.id)
		if id >= out.submitted {
			extra++
			note(fmt.Errorf("request %d logged but never submitted", id))
			continue
		}
		seen[id] = seen[id]&badBit | min(seen[id]&^badBit+1, 2)
		key := in.keys[id%pipelineInputs]
		r := int(key % pipelineRules)
		if l.version > out.rules[r].version || l.result != ruleResult(key, ruleValue(in.ruleSeed, r, l.version)) {
			seen[id] |= badBit
			note(fmt.Errorf("request %d: result %#x does not match rule %d version %d", id, l.result, r, l.version))
		}
	}
	failed := extra
	for id, s := range seen {
		if n := s &^ badBit; n != 1 {
			s |= badBit
			note(fmt.Errorf("request %d logged %d times", id, n))
		}
		if s&badBit != 0 {
			failed++
		}
	}
	return failed, first
}

// pipeline is the daemon built from the Threads package.
type pipeline struct {
	in    *pipelineInput
	inq   *derived.Ring[request]
	outq  *derived.Ring[reply]
	rw    *derived.RWLock
	rules []rule // guarded by rw

	winMu    threads.Mutex
	winFree  threads.Condition
	inflight int // guarded by winMu

	out     pipelineOut // log and latencies are written by the logger only
	base    time.Time
	tr      *tracer // nil when untraced
	reqBase int64   // added to request ids in spans, unique per round

	cancel          context.CancelFunc // stops the workers
	workers         []*threads.Thread
	errs            []error // each worker's result
	logThread       *threads.Thread
	mainBuf, cliBuf *spanBuf // the round's own and the client's spans; nil when untraced
}

func (p *pipeline) now() int64 { return int64(time.Since(p.base)) }

func (p *pipeline) traced(id int64) bool { return p.tr != nil && id%traceOneIn == 0 }

// client submits requests until end, keeping at most pipelineWindow in
// flight, then waits for every reply.
func (p *pipeline) client(end time.Time, buf *spanBuf) {
	for i := int64(0); time.Now().Before(end); i++ {
		var t0 int64
		if p.tr != nil {
			t0 = p.now()
		}
		p.winMu.Acquire()
		for p.inflight >= pipelineWindow {
			p.winFree.Wait(&p.winMu)
		}
		p.inflight++
		p.winMu.Release()
		idx := int(i % pipelineInputs)
		if u := p.in.updates[idx]; u >= 0 {
			l0 := p.now()
			p.rw.Lock()
			if p.traced(i) {
				buf.add(spLock, -1, -1, l0, p.now())
			}
			bump(p.in, p.rules, int(u))
			p.rw.Unlock()
			p.out.updates++
		}
		submit := p.now()
		if p.traced(i) {
			buf.add(spWindowWait, -1, -1, t0, submit)
		}
		err := p.inq.PushDeadline(request{id: i, key: p.in.keys[idx], submit: submit}, time.Now().Add(pushTimeout))
		if p.traced(i) {
			buf.add(spRingPush, -1, p.reqBase+i, submit, p.now())
		}
		p.out.submitted++
		if err != nil {
			p.out.refused++
			p.winMu.Acquire()
			p.inflight--
			p.winMu.Release()
		}
	}
	p.winMu.Acquire()
	for p.inflight > 0 {
		p.winFree.Wait(&p.winMu)
	}
	p.winMu.Release()
}

// worker serves requests until ctx is cancelled. Its pops carry an idle
// deadline, as a daemon's would; WithContext turns cancellation into an
// Alert that ends the pop.
func (p *pipeline) worker(ctx context.Context, buf *spanBuf) error {
	return threads.WithContext(ctx, func() error {
		for {
			var t0 int64
			if p.tr != nil {
				t0 = p.now()
			}
			rq, err := p.inq.PopDeadline(time.Now().Add(popIdle))
			if err != nil {
				// The idle deadline can fire just as the cancellation's
				// Alert lands; either way the worker is done.
				if ctx.Err() != nil {
					return ctx.Err()
				}
				if errors.Is(err, threads.DeadlineExceeded) {
					continue
				}
				return err
			}
			tr := p.traced(rq.id)
			var t1 int64
			if tr {
				t1 = p.now()
				buf.add(spRingPop, -1, p.reqBase+rq.id, t0, t1)
			}
			r := int(rq.key % pipelineRules)
			p.rw.RLock()
			if tr {
				buf.add(spRLock, -1, p.reqBase+rq.id, t1, p.now())
			}
			ru := p.rules[r]
			p.rw.RUnlock()
			rp := reply{id: rq.id, version: ru.version, result: ruleResult(rq.key, ru.value), submit: rq.submit}
			var t2 int64
			if tr {
				t2 = p.now()
			}
			p.outq.Push(rp)
			if tr {
				buf.add(spRingPush, -1, p.reqBase+rq.id, t2, p.now())
			}
		}
	})
}

// logger records every reply and frees its window slot; a negative id
// stops it.
func (p *pipeline) logger(buf *spanBuf) {
	for {
		var t0 int64
		if p.tr != nil {
			t0 = p.now()
		}
		rp := p.outq.Pop()
		if rp.id < 0 {
			return
		}
		now := p.now()
		p.out.log = append(p.out.log, logRec{uint32(rp.id), rp.version, rp.result})
		if rp.id%latOneIn == 0 {
			p.out.latUS = append(p.out.latUS, float32(now-rp.submit)/1e3)
		}
		if p.traced(rp.id) {
			buf.add(spRingPop, -1, p.reqBase+rp.id, t0, now)
			buf.add(spRequest, -1, p.reqBase+rp.id, rp.submit, now)
		}
		p.winMu.Acquire()
		p.inflight--
		p.winMu.Release()
		p.winFree.Signal()
	}
}

// pipelineScratch is the benchmark's own recording memory: allocated once
// per run, outside any round's set-up, and reused, so no round pays for
// faulting it in.
type pipelineScratch struct {
	log  []logRec
	lat  []float32
	seen []uint8
}

// newPipelineScratch sizes the log for rounds of dur at several times
// today's throughput, so it does not grow while timed.
func newPipelineScratch(dur time.Duration) *pipelineScratch {
	n := int(dur.Seconds()*2e6) + 1024
	return &pipelineScratch{log: make([]logRec, 0, n), lat: make([]float32, 0, n/latOneIn), seen: make([]uint8, n)}
}

// startPipeline sets the daemon up: the rings, the rule table, and the
// Fork'd workers and logger. tr may be nil.
func startPipeline(in *pipelineInput, tr *tracer, sc *pipelineScratch) *pipeline {
	p := &pipeline{
		in:    in,
		inq:   derived.NewRing[request](pipelineWindow),
		outq:  derived.NewRing[reply](pipelineWindow),
		rw:    derived.NewRWLock(),
		rules: initialRules(in),
		out: pipelineOut{
			log:   sc.log[:0],
			latUS: sc.lat[:0],
		},
		base: time.Now(),
		tr:   tr,
	}
	bufFor := func(capacity int) *spanBuf {
		if tr == nil {
			return nil
		}
		return tr.buffer(capacity)
	}
	if tr != nil {
		p.reqBase = tr.requestBase()
	}
	p.mainBuf = bufFor(64)
	ctx, cancel := context.WithCancel(context.Background())
	p.cancel = cancel
	p.errs = make([]error, nproc())
	p.workers = make([]*threads.Thread, nproc())
	for i := range p.workers {
		i, buf := i, bufFor(1<<16)
		p.workers[i] = p.fork(func() { p.errs[i] = p.worker(ctx, buf) })
	}
	logBuf := bufFor(1 << 16)
	p.logThread = p.fork(func() { p.logger(logBuf) })
	p.cliBuf = bufFor(1 << 16)
	return p
}

// fork is threads.Fork, recorded as a span when traced.
func (p *pipeline) fork(fn func()) *threads.Thread {
	t0 := p.now()
	t := threads.Fork(fn)
	if p.mainBuf != nil {
		p.mainBuf.add(spFork, -1, -1, t0, p.now())
	}
	return t
}

// stop shuts the daemon down: it cancels the workers' context, which
// WithContext delivers as an Alert to their pending pops, joins them, then
// stops and joins the logger.
func (p *pipeline) stop() {
	p.cancel()
	for _, w := range p.workers {
		t0 := p.now()
		threads.Join(w)
		if p.mainBuf != nil {
			p.mainBuf.add(spJoin, -1, -1, t0, p.now())
		}
	}
	p.outq.Push(reply{id: -1})
	threads.Join(p.logThread)
}

// pipelineRound sets the daemon up, runs the client for dur, shuts down and
// checks the log. tr may be nil. The round's verify time is its drain and
// shutdown: from the end of the load until the last reply is logged and
// every thread has been joined.
func pipelineRound(in *pipelineInput, dur time.Duration, tr *tracer, sc *pipelineScratch) (round, *pipeline) {
	var r round
	base := heapBaseline()
	start := time.Now()
	p := startPipeline(in, tr, sc)
	r.setup = time.Since(start)

	ph := beginTimed(base)
	end := time.Now().Add(dur)
	threads.Join(threads.Fork(func() { p.client(end, p.cliBuf) }))
	p.stop()
	r.verify = time.Since(end)
	ph.end(&r)

	p.out.rules = p.rules
	failed, err := checkPipeline(in, &p.out, sc.seen)
	for _, werr := range p.errs {
		if !errors.Is(werr, context.Canceled) && err == nil {
			err = fmt.Errorf("worker ended with %v", werr)
		}
	}
	r.ops = len(p.out.log)
	r.attempted = p.out.submitted
	r.failed = failed + p.out.refused
	r.err = err
	r.latUS = p.out.latUS
	r.finish()
	return r, p
}

func runPipeline(seed int64, seconds float64, out io.Writer) outcome {
	in := genPipeline(seed)
	dur := splitSeconds(seconds, pipelineRounds)
	sc := newPipelineScratch(dur)
	next := func() round { r, _ := pipelineRound(in, dur, nil, sc); return r }
	setup := func() func() { return startPipeline(in, nil, sc).stop }
	return runRounds(pipelineRounds, betterQuartile, next, setup, out)
}

// tracePipeline is the traced run; the SELF cost is timed on a Fork'd
// thread after the traced rounds.
func tracePipeline(seed int64, seconds float64, spansDir string, out io.Writer) outcome {
	in := genPipeline(seed)
	dur := splitSeconds(seconds, pipelineRounds)
	sc := newPipelineScratch(dur)
	next := func(tr *tracer, twin bool) (round, int) {
		if twin {
			return twinPipelineRound(in, dur, sc), 0
		}
		r, p := pipelineRound(in, dur, tr, sc)
		return r, p.out.updates
	}
	spans := func(st *[numSpanNames][]float64, v map[string]float64) {
		v["ring.push_us_p50"] = quantile(st[spRingPush], 0.50) / 1e3
		v["ring.push_us_p99"] = quantile(st[spRingPush], 0.99) / 1e3
		v["ring.pop_us_p50"] = quantile(st[spRingPop], 0.50) / 1e3
		v["ring.pop_us_p99"] = quantile(st[spRingPop], 0.99) / 1e3
		v["client.window_wait_us_p50"] = quantile(st[spWindowWait], 0.50) / 1e3
		v["request.self_us_p50"] = quantile(st[spRequest], 0.50) / 1e3
		v["threads.fork_us"] = quantile(st[spFork], 0.50) / 1e3
		v["threads.join_us"] = quantile(st[spJoin], 0.50) / 1e3
		v["self.ns_per_call"] = selfCost()
	}
	return traceRounds("pipeline", seed, max(pipelineRounds/3, 1), betterQuartile, next, spans, spansDir, out)
}

// selfCost times threads.Self on a Fork'd thread, in ns per call.
func selfCost() float64 {
	const calls = 20000
	var ns float64
	threads.Join(threads.Fork(func() {
		threads.Self()
		start := time.Now()
		for i := 0; i < calls; i++ {
			threads.Self()
		}
		ns = float64(time.Since(start).Nanoseconds()) / calls
	}))
	return ns
}

// twinPipelineRound runs the same daemon on the same inputs built from
// sync.Mutex, sync.RWMutex, sync.Cond and channels.
func twinPipelineRound(in *pipelineInput, dur time.Duration, sc *pipelineScratch) round {
	var r round
	base := heapBaseline()
	start := time.Now()
	var (
		inq      = make(chan request, pipelineWindow)
		outq     = make(chan reply, pipelineWindow)
		rw       sync.RWMutex
		rules    = initialRules(in)
		winMu    sync.Mutex
		winFree  = sync.NewCond(&winMu)
		inflight int
		res      = pipelineOut{log: sc.log[:0], latUS: sc.lat[:0]}
		wg, lg   sync.WaitGroup
	)
	now := func() int64 { return int64(time.Since(start)) }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wg.Add(nproc())
	for i := 0; i < nproc(); i++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case rq := <-inq:
					k := int(rq.key % pipelineRules)
					rw.RLock()
					ru := rules[k]
					rw.RUnlock()
					outq <- reply{id: rq.id, version: ru.version, result: ruleResult(rq.key, ru.value), submit: rq.submit}
				}
			}
		}()
	}
	lg.Add(1)
	go func() {
		defer lg.Done()
		for rp := range outq {
			res.log = append(res.log, logRec{uint32(rp.id), rp.version, rp.result})
			if rp.id%latOneIn == 0 {
				res.latUS = append(res.latUS, float32(now()-rp.submit)/1e3)
			}
			winMu.Lock()
			inflight--
			winMu.Unlock()
			winFree.Signal()
		}
	}()
	r.setup = time.Since(start)

	ph := beginTimed(base)
	end := time.Now().Add(dur)
	for i := int64(0); time.Now().Before(end); i++ {
		winMu.Lock()
		for inflight >= pipelineWindow {
			winFree.Wait()
		}
		inflight++
		winMu.Unlock()
		idx := int(i % pipelineInputs)
		if u := in.updates[idx]; u >= 0 {
			rw.Lock()
			bump(in, rules, int(u))
			rw.Unlock()
		}
		inq <- request{id: i, key: in.keys[idx], submit: now()}
		res.submitted++
	}
	winMu.Lock()
	for inflight > 0 {
		winFree.Wait()
	}
	winMu.Unlock()
	cancel()
	wg.Wait()
	close(outq)
	lg.Wait()
	r.verify = time.Since(end)
	ph.end(&r)

	res.rules = rules
	r.failed, r.err = checkPipeline(in, &res, sc.seen)
	r.ops = len(res.log)
	r.attempted = res.submitted
	r.latUS = res.latUS
	r.finish()
	return r
}
