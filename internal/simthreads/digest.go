package simthreads

import "threads/internal/sim"

// This file is the simthreads side of the explorer contract (see
// internal/sim/footprint.go and DESIGN.md "Independence and state
// fingerprints"):
//
//   - every shared word a primitive owns is registered with an
//     emission-scope mask, so the explorer knows which steps may emit
//     spec actions on which objects and never commutes two steps whose
//     event order the conformance checker could observe;
//   - a digester folds the state the kernel cannot see — thread queues and
//     per-thread Nub state — into state fingerprints, so the explorer's
//     cache never identifies two machine states that differ in queued
//     waiters or pending wake reasons.
//
// Scope masks: bit 0 is unused; bits 1..31 name individual gates (mutexes
// and semaphores), bits 32..62 name individual conditions. A condition's
// words additionally carry the whole gate band, because condition windows
// emit actions naming a mutex (Wait's Enqueue, AlertWait's Raise). The Nub
// spin-lock word carries all bits: anything can be emitted under it. If a
// world ever outgrows the bands, later primitives degrade to the full mask
// — pruning weakens, soundness does not.

const gateScopeBand = (uint64(1)<<32 - 1) &^ 1 // bits 1..31

// registerGate gives a gate's words their scope mask and its queue a
// digest identity.
func (w *World) registerGate(g *gate) {
	w.gates = append(w.gates, g)
	w.nGates++
	scope := ^uint64(0)
	if w.nGates <= 31 {
		scope = 1 << w.nGates
	}
	w.k.SetWordScope(&g.lockBit, scope)
	w.k.SetWordScope(&g.qne, scope)
	w.registerQueue(&g.q)
}

// registerCond gives a condition's words their scope mask (own bit plus
// the whole gate band) and its queue a digest identity.
func (w *World) registerCond(c *Condition) {
	w.nConds++
	scope := ^uint64(0)
	if w.nConds <= 31 {
		scope = 1<<(31+w.nConds) | gateScopeBand
	}
	w.k.SetWordScope(&c.ec, scope)
	w.k.SetWordScope(&c.committed, scope)
	w.registerQueue(&c.q)
}

func (w *World) registerQueue(q *tqueue) {
	q.id = len(w.queues) + 1
	w.queues = append(w.queues, q)
}

// digest folds World state invisible to the kernel into a fingerprint:
// queue contents in order, and each thread's alert flag, wake reason,
// alertable-block target and stashed hand-off emission. Iteration orders
// are structural (creation order, thread-ID order), never map order.
func (w *World) digest(h *sim.Hash128) {
	for _, q := range w.queues {
		h.Add(0xa5a5<<16 | uint64(q.id))
		for _, t := range q.items {
			h.Add(uint64(t.ID()) + 1)
		}
	}
	for _, g := range w.gates {
		// The holder hint steers future donations, so two states differing
		// only in it must not be identified.
		if g.holder != nil {
			h.Add(0xb0b0<<16 | uint64(g.holder.ID()) + 1)
		} else {
			h.Add(0xb0b0 << 16)
		}
	}
	for id, t := range w.k.Threads() {
		// Effective priority orders the ready pool and the gate queues.
		h.Add(0x9d9d<<32 | uint64(uint32(int32(t.Priority()))))
		if id >= len(w.states) || w.states[id] == nil || w.states[id].id == 0 {
			h.Add(0)
			continue
		}
		st := w.states[id]
		f := uint64(1)
		if st.alerted {
			f |= 2
		}
		f |= uint64(st.wakeup) << 2
		if st.alertTgt != nil {
			f |= uint64(st.alertTgt.id) << 8
		}
		if st.handoffEmit.op != linNone {
			f |= 1 << 32
		}
		h.Add(f)
		// Donations, in gate-queue registration order (never map order).
		for _, q := range w.queues {
			if d, ok := st.donations[q.id]; ok {
				h.Add(0xd0d0<<32 | uint64(q.id)<<16 | uint64(uint16(int16(d))))
			}
		}
	}
}
