package checker

import (
	"threads/internal/sim"
	"threads/internal/simthreads"
)

// The registry's programs are written against a builder, so that their
// Builds keep SimProgram.Build's contract: the builder keeps what the
// first Build of a program makes on a world — the objects it took, in
// creation order, its words with their initial values, the threads it
// spawned and its check — and makes them again on that world, reset,
// allocating nothing.

// program is one registry program: its construction, and the key the
// builders of its worlds are kept under.
type program struct {
	make func(b *builder) (check func() error)
}

// reusable returns the SimProgram.Build of the program mk constructs. mk
// must make every object, word and thread of the program through b, and
// keep no other state that a run changes.
func reusable(mk func(b *builder) (check func() error)) func(*simthreads.World, *simthreads.Kernel) func() error {
	return (&program{make: mk}).build
}

func (p *program) build(w *simthreads.World, k *simthreads.Kernel) func() error {
	if b, ok := w.Program.(*builder); ok && b.p == p {
		return b.again()
	}
	b := &builder{p: p, w: w, k: k}
	b.check = p.make(b)
	for i := range b.words {
		b.words[i].init = b.words[i].w.Peek()
	}
	w.Program = b
	return b.check
}

// builder makes one program's objects, words and threads on one world,
// and keeps them to make the program again there.
type builder struct {
	p       *program
	w       *simthreads.World
	k       *simthreads.Kernel
	objs    []func() // each takes one of the program's objects again
	words   []keptWord
	threads []spawned
	check   func() error
}

// keptWord is a word of the program and its value when the first Build
// returned.
type keptWord struct {
	w    *sim.Word
	init uint64
}

type spawned struct {
	name string
	pri  int
	body func(*sim.Env)
}

// again makes the program again on its reset world: the world hands out
// the same objects and the kernel the same thread records, in creation
// order, so the thread bodies and the check find theirs.
func (b *builder) again() func() error {
	for _, take := range b.objs {
		take()
	}
	for _, kw := range b.words {
		kw.w.Poke(kw.init)
	}
	for _, t := range b.threads {
		b.k.SpawnPri(t.name, t.pri, t.body)
	}
	return b.check
}

func (b *builder) mutex() *simthreads.Mutex {
	b.objs = append(b.objs, func() { b.w.NewMutex() })
	return b.w.NewMutex()
}

func (b *builder) cond() *simthreads.Condition {
	b.objs = append(b.objs, func() { b.w.NewCondition() })
	return b.w.NewCondition()
}

func (b *builder) sem() *simthreads.Semaphore {
	b.objs = append(b.objs, func() { b.w.NewSemaphore() })
	return b.w.NewSemaphore()
}

func (b *builder) timer() *simthreads.DeadlineTimer {
	b.objs = append(b.objs, func() { b.w.NewDeadlineTimer() })
	return b.w.NewDeadlineTimer()
}

// word makes a word of the program. It starts every run at the value it
// holds when the construction returns: 0, unless the construction pokes
// another.
func (b *builder) word() *sim.Word {
	return &b.wordSlice(1)[0]
}

// wordSlice makes n words of the program, as word does.
func (b *builder) wordSlice(n int) []sim.Word {
	ws := make([]sim.Word, n)
	for i := range ws {
		b.words = append(b.words, keptWord{w: &ws[i]})
	}
	return ws
}

// spawn spawns a thread of the program at priority 0.
func (b *builder) spawn(name string, body func(*sim.Env)) *sim.T {
	return b.spawnPri(name, 0, body)
}

// spawnPri spawns a thread of the program at priority pri. The thread
// record it returns is the thread's in every run of the world.
func (b *builder) spawnPri(name string, pri int, body func(*sim.Env)) *sim.T {
	b.threads = append(b.threads, spawned{name, pri, body})
	return b.k.SpawnPri(name, pri, body)
}
