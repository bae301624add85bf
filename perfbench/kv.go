package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"
	"unsafe"

	"threads"
	"threads/derived"
)

// The kv workload runs nproc client threads, each a closed loop of seeded,
// Zipf-skewed gets and puts on a sharded table whose shards are guarded by
// derived.RWLock. Every op scans its shard, so critical sections do real
// work and the hot shards contend; about a tenth of the ops are puts. No op
// is alertable, so the workload bypasses SELF and the timer wheel and
// stresses the test-and-set fast path, adaptive spin, the Nub and the
// RWLock's Broadcast instead.
const (
	kvShards       = 8
	kvEntries      = 16 // keys per shard; each op scans all of them
	kvKeys         = kvShards * kvEntries
	kvOpsPerClient = 1 << 18 // generated ops per client; a client cycles through its own
	kvWriteOneIn   = 10
	kvZipfS        = 1.1
	kvZipfV        = 8   // the Zipf offset: the hottest key draws about 5% of the ops
	kvRounds       = 60  // NOTES.md says why 60
	kvLatOneIn     = 8   // ops whose call time is recorded
	kvTraceOneIn   = 256 // ops traced with spans
)

// kvOp is a key in the low 16 bits and, for a put, the increment in the
// next 8 (0 means get).
type kvOp uint32

func (op kvOp) key() int      { return int(op & 0xffff) }
func (op kvOp) delta() uint64 { return uint64(op >> 16) }

// kvInput is everything the generator derives from the seed.
type kvInput struct {
	init []uint64 // initial value per key
	ops  [][]kvOp // per client
}

func genKV(seed int64, clients int) *kvInput {
	r := rand.New(rand.NewSource(seed))
	in := &kvInput{init: make([]uint64, kvKeys), ops: make([][]kvOp, clients)}
	for k := range in.init {
		in.init[k] = uint64(r.Uint32())
	}
	zipf := rand.NewZipf(r, kvZipfS, kvZipfV, kvKeys-1)
	for c := range in.ops {
		ops := make([]kvOp, kvOpsPerClient)
		for i := range ops {
			op := kvOp(zipf.Uint64())
			if r.Intn(kvWriteOneIn) == 0 {
				op |= kvOp(1+r.Intn(255)) << 16
			}
			ops[i] = op
		}
		in.ops[c] = ops
	}
	return in
}

// encode serializes the input, so tests can compare two generations.
func (in *kvInput) encode() []byte {
	var b bytes.Buffer
	_ = binary.Write(&b, binary.LittleEndian, in.init) // writes to a bytes.Buffer cannot fail
	for _, ops := range in.ops {
		_ = binary.Write(&b, binary.LittleEndian, ops)
	}
	return b.Bytes()
}

// rwLocker is what the table needs from a shard lock: derived.RWLock, or
// sync.RWMutex in the stdlib twin.
type rwLocker interface {
	RLock()
	RUnlock()
	Lock()
	Unlock()
}

// kvEntry carries a check word written with its value, so a read that
// overlaps a write (a broken exclusion) shows as a mismatch.
type kvEntry struct {
	key      uint64
	val, chk uint64
}

func entryCheck(key, val uint64) uint64 { return mix64(key<<32 ^ val) }

type kvShard struct {
	lock rwLocker
	ents [kvEntries]kvEntry
	_    [64]byte // keeps neighbouring shards' entries off each other's cache lines
}

type kvTable struct{ shards []kvShard }

// alignedRWLock pads derived.RWLock to a whole number of cache lines. The
// allocator then places every such lock at a line boundary, so no two
// shards' locks share a line and each lock's fields fall on the same lines
// in every round. derived.RWLock alone is 224 bytes, and its size class
// starts every other object half a line in, so the cost of an op would
// depend on the addresses a round's locks happened to get.
type alignedRWLock struct {
	derived.RWLock
	_ [(cacheLine - unsafe.Sizeof(derived.RWLock{})%cacheLine) % cacheLine]byte
}

const cacheLine = 64

func newKVTable(in *kvInput, lock func() rwLocker) *kvTable {
	t := &kvTable{shards: make([]kvShard, kvShards)}
	for k, v := range in.init {
		s := &t.shards[k%kvShards]
		s.ents[k/kvShards] = kvEntry{uint64(k), v, entryCheck(uint64(k), v)}
	}
	for i := range t.shards {
		t.shards[i].lock = lock()
	}
	return t
}

// kvClient is one client's closed loop: it runs its ops until end and
// reports how many it ran, how many were puts and how many reads saw a
// torn entry. The loop keeps its counts in locals and stores them when it
// ends, so the two clients' records, which may share a cache line, are not
// written while timed.
type kvClient struct {
	ops   []kvOp
	ran   int
	puts  int
	torn  int
	latUS []float32
	buf   *spanBuf // nil when untraced
	tr    *tracer
}

func (c *kvClient) run(t *kvTable, end time.Time) {
	puts, torn, lat := 0, 0, c.latUS
	defer func() { c.puts, c.torn, c.latUS = puts, torn, lat }()
	for i := 0; ; i++ {
		// A timed op's clock reading also ends the loop, so a client
		// stops within kvLatOneIn ops of end and the drain is the
		// program's.
		timed := i%kvLatOneIn == 0
		var start time.Time
		if timed {
			if start = time.Now(); start.After(end) {
				c.ran = i
				return
			}
		}
		op := c.ops[i%len(c.ops)]
		k := op.key()
		s := &t.shards[k%kvShards]
		traced := c.buf != nil && i%kvTraceOneIn == 0
		var root int32
		var t0 int64
		if traced {
			t0 = c.tr.now()
			root = c.buf.add(spKVOp, -1, -1, t0, 0)
		}
		if d := op.delta(); d != 0 {
			s.lock.Lock()
			if traced {
				c.buf.add(spLock, root, -1, t0, c.tr.now())
			}
			for j := range s.ents {
				if e := &s.ents[j]; e.key == uint64(k) {
					e.val += d
					e.chk = entryCheck(e.key, e.val)
				}
			}
			s.lock.Unlock()
			puts++
		} else {
			s.lock.RLock()
			if traced {
				c.buf.add(spRLock, root, -1, t0, c.tr.now())
			}
			// The scan is one dependent chain: each entry's check folds
			// in the previous one's mismatch, which is 0 while the read
			// is clean. Its time is then the latency of the hash, which
			// varies less on a shared host than its throughput does.
			var bad uint64
			for j := range s.ents {
				e := &s.ents[j]
				bad = entryCheck(e.key, e.val^bad) ^ e.chk
			}
			s.lock.RUnlock()
			if bad != 0 {
				torn++
			}
		}
		if traced {
			c.buf.spans[root].end = c.tr.now()
		}
		if timed {
			lat = append(lat, float32(time.Since(start).Nanoseconds())/1e3)
		}
	}
}

// checkKV compares the final table with a sequential replay of the ops the
// clients ran; puts are increments, so the replay is exact whatever the
// interleaving. It returns the number of wrong keys and the first.
func checkKV(in *kvInput, clients []*kvClient, t *kvTable) (int, error) {
	want := append([]uint64(nil), in.init...)
	for _, c := range clients {
		for i := 0; i < c.ran; i++ {
			op := c.ops[i%len(c.ops)]
			want[op.key()] += op.delta()
		}
	}
	failed := 0
	var first error
	for k := range want {
		e := t.shards[k%kvShards].ents[k/kvShards]
		if e.val != want[k] || e.chk != entryCheck(e.key, e.val) {
			failed++
			if first == nil {
				first = fmt.Errorf("key %d = %d, replay gives %d", k, e.val, want[k])
			}
		}
	}
	return failed, first
}

// kvRun is what a round leaves for its check.
type kvRun struct {
	in      *kvInput
	clients []*kvClient
	table   *kvTable
	writes  int // puts the clients ran
}

// kvScratch holds each client's latency samples: allocated once per run,
// outside any round's set-up, and reused.
type kvScratch struct{ lat [][]float32 }

// newKVScratch sizes the sample buffers for rounds of dur at several times
// today's throughput, so they do not grow while timed.
func newKVScratch(dur time.Duration) *kvScratch {
	sc := &kvScratch{lat: make([][]float32, nproc())}
	for i := range sc.lat {
		sc.lat[i] = make([]float32, 0, int(dur.Seconds()*1e7/kvLatOneIn)+1024)
	}
	return sc
}

// setupKV builds the table and the clients: the round's set-up. twin
// selects sync.RWMutex; tr may be nil.
func setupKV(in *kvInput, tr *tracer, twin bool, sc *kvScratch) (*kvTable, []*kvClient) {
	lock := func() rwLocker { return &new(alignedRWLock).RWLock }
	if twin {
		lock = func() rwLocker { return new(sync.RWMutex) }
	}
	t := newKVTable(in, lock)
	clients := make([]*kvClient, len(in.ops))
	for i := range clients {
		clients[i] = &kvClient{ops: in.ops[i], latUS: sc.lat[i][:0], tr: tr}
		if tr != nil {
			clients[i].buf = tr.buffer(1 << 18)
		}
	}
	return t, clients
}

// kvRound sets up the table, runs the clients for dur and checks the
// result. twin selects sync.RWMutex and goroutines; tr may be nil. The
// round's verify time is its drain: from the end of the load until every
// client has been joined.
func kvRound(in *kvInput, dur time.Duration, tr *tracer, twin bool, sc *kvScratch) (round, *kvRun) {
	var r round
	base := heapBaseline()
	start := time.Now()
	t, clients := setupKV(in, tr, twin, sc)
	r.setup = time.Since(start)

	ph := beginTimed(base)
	end := time.Now().Add(dur)
	if twin {
		var wg sync.WaitGroup
		wg.Add(len(clients))
		for _, c := range clients {
			c := c
			go func() { defer wg.Done(); c.run(t, end) }()
		}
		wg.Wait()
	} else {
		ths := make([]*threads.Thread, len(clients))
		for i, c := range clients {
			c := c
			ths[i] = threads.Fork(func() { c.run(t, end) })
		}
		for _, th := range ths {
			threads.Join(th)
		}
	}
	r.verify = time.Since(end)
	ph.end(&r)

	failed, err := checkKV(in, clients, t)
	run := &kvRun{in: in, clients: clients, table: t}
	for _, c := range clients {
		r.ops += c.ran
		failed += c.torn
		run.writes += c.puts
		if c.torn > 0 && err == nil {
			err = fmt.Errorf("%d reads saw a torn entry", c.torn)
		}
	}
	r.attempted, r.failed, r.err = r.ops, failed, err
	for _, c := range clients {
		r.latUS = append(r.latUS, c.latUS...)
	}
	r.finish()
	return r, run
}

func runKV(seed int64, seconds float64, out io.Writer) outcome {
	in := genKV(seed, nproc())
	dur := splitSeconds(seconds, kvRounds)
	sc := newKVScratch(dur)
	next := func() round { r, _ := kvRound(in, dur, nil, false, sc); return r }
	setup := func() func() { setupKV(in, nil, false, sc); return func() {} }
	return runRounds(kvRounds, middle, next, setup, out)
}

func traceKV(seed int64, seconds float64, spansDir string, out io.Writer) outcome {
	in := genKV(seed, nproc())
	dur := splitSeconds(seconds, kvRounds)
	sc := newKVScratch(dur)
	next := func(tr *tracer, twin bool) (round, int) {
		r, run := kvRound(in, dur, tr, twin, sc)
		return r, run.writes
	}
	return traceRounds("kv", seed, max(kvRounds/3, 1), middle, next, nil, spansDir, out)
}
